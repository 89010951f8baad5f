"""Lattice geometry, halo framing and population storage.

A tile's populations are one (Q, NX, NY) float64 array: each population's
plane is contiguous, and within it the values at consecutive y for a fixed
x.  The kernels address it through its strides.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AllocationError
from .velocity_set import VelocitySet

# Refuse allocations above this many scalars (half the address range a signed
# 32-bit element count would allow; plenty for desk-scale runs).
_MAX_SCALARS = 2**31


@dataclass(frozen=True)
class LatticeGeometry:
    """Physical extents plus halo framing for one tile."""

    Lx: int
    Ly: int
    Hx: int
    Hy: int
    Q: int

    def __post_init__(self):
        if self.Lx < 1 or self.Ly < 1:
            raise AllocationError(f"degenerate extents {self.Lx}x{self.Ly}")
        if self.Hx < 0 or self.Hy < 0 or self.Q < 1:
            raise AllocationError("negative halo or empty stencil")

    @property
    def NX(self):
        return self.Hx + self.Lx + self.Hx

    @property
    def NY(self):
        return self.Hy + self.Ly + self.Hy

    @property
    def phys_x(self):
        """Slice of physical x indices in padded coordinates."""
        return slice(self.Hx, self.Hx + self.Lx)

    @property
    def phys_y(self):
        return slice(self.Hy, self.Hy + self.Ly)

    def pull_ranges(self, walls, wrap):
        """((xlo, xhi), (ylo, yhi)), the ranges pulls are mapped into: an
        axis's physical sites when it wraps, else its padded extent, but a
        "bottom" wall (start, stop, Twall, side) sets ylo to the first
        physical row and a "top" one yhi to the last."""
        xs = (self.Hx, self.Hx + self.Lx - 1) if wrap[0] else (0, self.NX - 1)
        if wrap[1]:
            return xs, (self.Hy, self.Hy + self.Ly - 1)
        lo, hi = 0, self.NY - 1
        for *_, side in walls:
            lo = self.Hy if side == "bottom" else lo
            hi = self.Hy + self.Ly - 1 if side == "top" else hi
        return xs, (lo, hi)

    def check_halo(self, vs: VelocitySet):
        if self.Hx < vs.max_hop or self.Hy < vs.max_hop:
            raise AllocationError(
                f"halo ({self.Hx},{self.Hy}) thinner than stencil reach {vs.max_hop}"
            )


class PopulationField:
    """One double-buffered half: pops, the (Q, NX, NY) float64 populations
    of geom's padded tile; zeroed unless the caller passes the array."""

    def __init__(self, geom: LatticeGeometry, pops=None):
        self.geom = geom
        n = geom.Q * geom.NX * geom.NY
        if n > _MAX_SCALARS:
            raise AllocationError(f"field of {n} scalars exceeds addressable size")
        if pops is None:
            pops = np.zeros((geom.Q, geom.NX, geom.NY))
        self.pops = pops


def allocate_field(geom: LatticeGeometry, vs: VelocitySet):
    """Allocate the zeroed (prv, nxt) double buffer for geom under stencil vs."""
    if geom.Q != vs.Q:
        raise AllocationError(f"geometry Q={geom.Q} does not match {vs.name}")
    geom.check_halo(vs)
    return PopulationField(geom), PopulationField(geom)


def same_bits(a, b):
    """Bit equality: one dtype, one shape, the same bytes.  Unlike
    np.array_equal it tells -0.0 from +0.0 and matches equal NaNs."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@dataclass
class MacroFields:
    """Per-site density, velocity and temperature over the physical region."""

    rho: np.ndarray
    ux: np.ndarray
    uy: np.ndarray
    T: np.ndarray
