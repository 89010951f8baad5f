"""Property suites runnable from the CLI: each returns (name, ok, detail) rows."""

import dataclasses
import math

import numpy as np

from .errors import ConfigurationError
from .geometry import same_bits
from .init import random_near_equilibrium
from .kernels import PhysicsParams, equilibrium, moments
from .planner import CostModelInput, factor_pairs, optimal_grid
from .runtime import Fabric, RankWorker, decompose
from .sim import SimConfig, run
from .velocity_set import build_velocity_set, gaussian_moment


def suite_moments():
    rows = []
    for name in ("D2Q37", "D2Q9"):
        vs = build_velocity_set(name)
        c = vs.c.astype(float)
        worst_odd = 0.0
        worst_even = 0.0
        max_order = 8 if name == "D2Q37" else 4
        odd_order = 5 if name == "D2Q37" else 3
        for a in range(max_order + 1):
            for b in range(max_order + 1 - a):
                m = float(np.sum(vs.w * c[:, 0] ** a * c[:, 1] ** b))
                if a % 2 or b % 2:
                    if a + b <= odd_order:
                        worst_odd = max(worst_odd, abs(m))
                else:
                    m_swap = float(np.sum(vs.w * c[:, 0] ** b * c[:, 1] ** a))
                    expect = gaussian_moment(a, b, vs.cs2)
                    worst_even = max(worst_even, abs(m - expect),
                                     abs(m - m_swap))
        ok = worst_odd < 1e-12 and worst_even < 1e-12
        rows.append((f"moments[{name}]", ok,
                     f"odd={worst_odd:.2e} even={worst_even:.2e}"))
        rest = vs.w.copy()
        rho, ux, uy, T = moments(rest[:, None], vs)
        ok2 = (abs(rho[0] - 1) < 1e-14 and abs(ux[0]) < 1e-14
               and abs(T[0] - vs.cs2) < 1e-13)
        rows.append((f"rest-state[{name}]", ok2,
                     f"rho={rho[0]:.16f} T={T[0]:.16f} cs2={vs.cs2:.16f}"))
    return rows


def suite_conservation(Lx=32, Ly=32, steps=100, model="D2Q37"):
    cfg = SimConfig(Lx=Lx, Ly=Ly, model=model, tiling="1d", Np=1,
                    schedule="staged", steps=0, walls=False, periodic_y=True,
                    params=PhysicsParams(tau=0.8),
                    init="random", init_kwargs={"seed": 7})
    r0 = run(cfg)
    vs = build_velocity_set(model)
    c = vs.c.astype(float)

    def totals(f):
        mass = float(np.sum(f))
        px = float(sum(c[l, 0] * np.sum(f[l]) for l in range(vs.Q)))
        py = float(sum(c[l, 1] * np.sum(f[l]) for l in range(vs.Q)))
        return mass, px, py

    m0, px0, py0 = totals(r0.populations)
    r1 = run(dataclasses.replace(cfg, steps=steps))
    m1, px1, py1 = totals(r1.populations)
    scale = abs(m0)
    dm = abs(m1 - m0) / scale
    dp = max(abs(px1 - px0), abs(py1 - py0)) / scale
    ok = dm < 1e-12 and dp < 1e-12
    return [(f"conservation[{model} {Lx}x{Ly} {steps} steps]", ok,
             f"mass drift={dm:.2e} momentum drift={dp:.2e}")]


def suite_rank_invariance(Lx=32, Ly=32, steps=20, model="D2Q37"):
    params = PhysicsParams(tau=0.8, gy=-1e-4, Twall_top=0.6, Twall_bot=0.75)
    variants = [("Np1 staged", "1d", 1, "staged"),
                ("Np1 overlapped", "1d", 1, "overlapped"),
                ("Np2 1x2 overlapped", (1, 2), 2, "overlapped"),
                ("Np4 1d overlapped", "1d", 4, "overlapped"),
                ("Np4 2x2 overlapped", (2, 2), 4, "overlapped"),
                ("Np4 2x2 staged", (2, 2), 4, "staged"),
                ("Np8 2x4 overlapped", (2, 4), 8, "overlapped")]
    rows = []
    # periodic, Y wraps in the kernel on the grids one tile high
    for walls, boundary in ((True, "walls"), (False, "periodic")):
        states = {}
        for label, tiling, Np, schedule in variants:
            cfg = SimConfig(Lx=Lx, Ly=Ly, model=model, tiling=tiling, Np=Np,
                            schedule=schedule, steps=steps, walls=walls,
                            periodic_y=not walls, params=params,
                            init="random", init_kwargs={"seed": 3})
            states[label] = run(cfg).populations
        ref = states.pop("Np1 staged")
        for label, state in states.items():
            ok = same_bits(ref, state)
            diff = 0.0 if ok else float(np.max(np.abs(ref - state)))
            rows.append((f"rank-invariance[{label} {boundary}]", ok,
                         f"max diff={diff:.2e}"))
    return rows


def suite_planner_oracle(max_np=64, tuples=20, seed=0):
    """optimal_grid against T_C = S (Ly / (By ny) + Lx / (Bx nx)) written
    out here, over every factor pair of Np, and its real optimum against
    the closed form."""
    rng = np.random.default_rng(seed)
    worst_int = True
    worst_real = 0.0
    for _ in range(tuples):
        Lx = int(rng.integers(64, 8192))
        Ly = int(rng.integers(64, 8192))
        Bx = float(rng.uniform(1e8, 1e10))
        By = float(rng.uniform(1e8, 1e10))
        S = float(rng.uniform(8, 512))

        def tc(nx, ny):
            return S * (Ly / (By * ny) + Lx / (Bx * nx))

        for Np in range(1, max_np + 1):
            inp = CostModelInput(Lx, Ly, Np, Bx, By, beta=1e-8, S=S)
            real, best = optimal_grid(inp)
            if tc(*best) != min(tc(*p) for p in factor_pairs(Np)):
                worst_int = False
            R = math.sqrt(Lx * By / (Ly * Bx))
            exp = (math.sqrt(Np) * R, math.sqrt(Np) / R)
            worst_real = max(worst_real,
                             abs(real[0] - exp[0]) / exp[0],
                             abs(real[1] - exp[1]) / exp[1])
    ok = worst_int and worst_real < 1e-10
    return [(f"planner-oracle[Np<={max_np}]", ok,
             f"integer match={worst_int} real err={worst_real:.2e}")]


def suite_taylor_green(L=64, steps=2000, tau=0.8):
    vs = build_velocity_set("D2Q9")
    nu = vs.cs2 * (tau - 0.5)
    k2 = 2.0 * (2.0 * np.pi / L) ** 2
    expected_rate = 2.0 * nu * k2
    energies = []
    for n in (0, steps):
        cfg_n = SimConfig(Lx=L, Ly=L, model="D2Q9", tiling="1d", Np=1,
                          schedule="staged", steps=n, walls=False,
                          periodic_y=True, params=PhysicsParams(tau=tau),
                          init="taylor-green")
        res = run(cfg_n)
        m = res.macro
        energies.append(float(np.sum(m.rho * (m.ux ** 2 + m.uy ** 2)) / 2.0))
    rate = -np.log(energies[1] / energies[0]) / steps
    rel = abs(rate - expected_rate) / expected_rate
    ok = rel < 0.02
    return [(f"taylor-green[{L}^2 {steps} steps]", ok,
             f"rate={rate:.3e} expected={expected_rate:.3e} rel err={rel:.2%}")]


def periodic_states(f0, vs, params, steps):
    """The physical populations of a periodic one-rank run from the (Q, Lx,
    Ly) state f0: f0 itself, then the state after each of steps steps (a
    view of the rank's buffer, valid until the next one is taken)."""
    Lx, Ly = f0.shape[1:]
    tile = decompose(Lx, Ly, 1, "1d", periodic_y=True)[0]
    w = RankWorker(tile, vs, params, Fabric(1), walls=False)
    w.prv.pops[:, w.geom.phys_x, w.geom.phys_y] = f0
    yield w.physical_block()
    for s in range(steps):
        w.step(s)
        yield w.physical_block()


def shear_wave(L=64, tau=0.8, amplitude=1e-3, first=10, last=110):
    """A D2Q37 shear wave u_x = amplitude sin(k y), k = 2 pi / L, at rest
    density and the lattice temperature on a periodic L x L grid: its
    amplitude, projected on sin(k y), must decay at nu k^2 within 1%, with
    nu = cs2 (tau - 1/2).  The rate is read from steps first to last, past
    the transient of the equilibrium start."""
    vs = build_velocity_set("D2Q37")
    k = 2.0 * np.pi / L
    wave = np.sin(k * np.arange(L))
    shape = (L, L)
    f0 = equilibrium(np.ones(shape), np.broadcast_to(amplitude * wave, shape),
                     np.zeros(shape), np.full(shape, vs.cs2), vs)
    amps = []
    for n, f in enumerate(periodic_states(f0, vs, PhysicsParams(tau=tau),
                                          last)):
        if n in (first, last):
            ux = moments(f, vs)[1]
            amps.append(2.0 / L * float(np.sum(ux.mean(axis=0) * wave)))
    rate = math.log(amps[0] / amps[1]) / (last - first)
    expected = vs.cs2 * (tau - 0.5) * k * k
    rel = abs(rate - expected) / expected
    return (f"shear-wave[D2Q37 {L}^2 tau={tau}]", rel < 0.01,
            f"rate={rate:.6e} expected={expected:.6e} rel err={rel:.2e}")


def body_force(model, tau, g=(3e-4, -1e-3), L=32, steps=10, seed=5):
    """A body force g on a random near-equilibrium start, periodic L x L
    grid: every step the total momentum must grow by exactly M g (M the
    total mass) to 1e-10 relative, and the total energy sum |c|^2 f / 2 by
    g . P, with P the momentum before the step, to 1e-7 relative (its
    rounding is that of sums some 1e5 times larger than the step's
    change).  Both are exact for the shifted-equilibrium force at the
    stencil's order: the shift tau g moves the momentum, and the
    temperature shift tau^2 |g|^2 / 2 keeps its kinetic energy out of the
    heat."""
    vs = build_velocity_set(model)
    c = vs.c.astype(float)
    gv = np.array(g)
    params = PhysicsParams(tau=tau, gx=g[0], gy=g[1])
    f0 = random_near_equilibrium(L, L, vs, seed=seed)
    totals = []
    for f in periodic_states(f0, vs, params, steps):
        per_l = f.sum(axis=(1, 2))
        totals.append((per_l.sum(), c.T @ per_l,
                       0.5 * float(np.sum(c * c, axis=1) @ per_l)))
    mass = totals[0][0]
    dp = de = change = 0.0
    for (_, p, e), (_, p1, e1) in zip(totals, totals[1:]):
        dp = max(dp, float(np.max(np.abs(p1 - p - mass * gv)))
                 / (mass * float(np.hypot(*gv))))
        de = max(de, abs(e1 - e - float(gv @ p)))
        change = max(change, abs(e1 - e))
    de /= change
    return (f"body-force[{model} tau={tau} {L}^2 {steps} steps]",
            dp <= 1e-10 and de <= 1e-7,
            f"momentum rel err={dp:.2e} energy rel err={de:.2e}")


BODY_FORCE_TAUS = (0.6, 0.8, 1.3)


def suite_physics():
    return [shear_wave()] + [body_force(model, tau)
                             for model in ("D2Q37", "D2Q9")
                             for tau in BODY_FORCE_TAUS]


SUITES = {
    "moments": suite_moments,
    "conservation": suite_conservation,
    "rank-invariance": suite_rank_invariance,
    "planner-oracle": suite_planner_oracle,
    "taylor-green": suite_taylor_green,
    "physics": suite_physics,
}


def run_suite(name):
    try:
        suite = SUITES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return suite()
