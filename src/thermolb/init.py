"""Initial-condition presets.

Each preset builds the full (Q, Lx, Ly) population array once, so every
decomposition of the same configuration starts from identical bits.
"""

import inspect
import numbers

import numpy as np

from .errors import ConfigurationError
from .kernels import equilibrium
from .velocity_set import VelocitySet


def uniform(Lx, Ly, vs: VelocitySet):
    """Unit density at rest at the lattice temperature: f_l = w_l."""
    shape = (Lx, Ly)
    rho = np.ones(shape)
    z = np.zeros(shape)
    return equilibrium(rho, z, z, np.full(shape, vs.cs2), vs)


def random_near_equilibrium(Lx, Ly, vs: VelocitySet, seed=0, amplitude=0.01):
    """Equilibrium at randomly perturbed (rho, u, T); used by conservation runs."""
    rng = np.random.default_rng(seed)
    shape = (Lx, Ly)
    rho = 1.0 + amplitude * rng.standard_normal(shape)
    ux = amplitude * rng.standard_normal(shape)
    uy = amplitude * rng.standard_normal(shape)
    T = vs.cs2 * (1.0 + amplitude * rng.standard_normal(shape))
    return equilibrium(rho, ux, uy, T, vs)


def taylor_green(Lx, Ly, vs: VelocitySet, u0=0.01):
    """Taylor-Green vortex at the lattice temperature (athermal start)."""
    kx = 2.0 * np.pi / Lx
    ky = 2.0 * np.pi / Ly
    x = np.arange(Lx)[:, None] + 0.5
    y = np.arange(Ly)[None, :] + 0.5
    ux = -u0 * np.cos(kx * x) * np.sin(ky * y)
    uy = u0 * np.sin(kx * x) * np.cos(ky * y)
    rho = np.ones((Lx, Ly))
    return equilibrium(rho, ux, uy, np.full((Lx, Ly), vs.cs2), vs)


def rayleigh_taylor(Lx, Ly, vs: VelocitySet, T_hot=None, T_cold=None,
                    perturbation=0.02, width=2.0):
    """Heavy cold fluid above light hot fluid with a sinusoidal interface.

    Density follows the ideal-gas relation at uniform pressure, so the cold
    upper layer is the heavy one.
    """
    if T_hot is None:
        T_hot = vs.cs2 * 1.1
    if T_cold is None:
        T_cold = vs.cs2 * 0.9
    x = np.arange(Lx)[:, None] + 0.5
    y = np.arange(Ly)[None, :] + 0.5
    interface = Ly / 2.0 + perturbation * Ly * np.cos(2.0 * np.pi * x / Lx)
    frac = 0.5 * (1.0 + np.tanh((y - interface) / width))  # 0 below, 1 above
    T = T_hot + (T_cold - T_hot) * frac
    p0 = T_hot  # uniform pressure; rho = p/T
    rho = p0 / T
    z = np.zeros((Lx, Ly))
    return equilibrium(rho, z, z, T * np.ones((Lx, Ly)), vs)


# The kind a preset parameter's value must have, by the type of its default;
# a bool is never a number here.
_KINDS = {int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a number"),
          type(None): ((numbers.Real, type(None)), "a number or null")}

PRESETS = {
    "uniform": uniform,
    "random": random_near_equilibrium,
    "taylor-green": taylor_green,
    "rayleigh-taylor": rayleigh_taylor,
}


def build_initial_state(name, Lx, Ly, vs, **kwargs):
    """The (Q, Lx, Ly) populations of preset name; kwargs must be parameters
    the preset takes, so that a misspelt one is an error, not a default, and
    each must have the kind of the parameter's default."""
    try:
        preset = PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown initial condition {name!r}; choose from {sorted(PRESETS)}")
    takes = dict(list(inspect.signature(preset).parameters.items())[3:])
    for key, value in kwargs.items():
        if key not in takes:
            raise ConfigurationError(
                f"initial condition {name!r} takes no {key!r}; it takes "
                f"{', '.join(takes) or 'no parameters'}")
        kind, want = _KINDS[type(takes[key].default)]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigurationError(f"initial condition {name!r} parameter "
                                     f"{key!r} must be {want}, not {value!r}")
    return preset(Lx, Ly, vs, **kwargs)
