"""Lattice geometry, halo framing and population storage.

Sites are stored column-major along Y: for a fixed population and x, values at
consecutive y are contiguous.  The SoA layout keeps each population plane
contiguous ((Q, NX, NY) storage); AoS keeps the Q values of one site together
((NX, NY, Q) storage).  Kernels always address storage through the canonical
(Q, NX, NY) view, so numerics are layout-independent.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AllocationError, ContractViolation
from .velocity_set import VelocitySet

SOA = "soa"
AOS = "aos"

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
    layout: str = SOA

    def __post_init__(self):
        if self.Lx < 1 or self.Ly < 1:
            raise AllocationError(f"degenerate extents {self.Lx}x{self.Ly}")
        if self.Hx < 0 or self.Hy < 0 or self.Q < 1:
            raise AllocationError("negative halo or empty stencil")
        if self.layout not in (SOA, AOS):
            raise AllocationError(f"unknown layout {self.layout!r}")

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

    def clamp_rows(self, walls, wrap=False):
        """(lo, hi): the rows pulls read.  The physical rows when Y wraps;
        otherwise the padded edges, but a "bottom" wall (start, stop, Twall,
        side) sets lo to the first physical row and a "top" one hi to the
        last."""
        if wrap:
            return self.Hy, self.Hy + self.Ly - 1
        lo, hi = 0, self.NY - 1
        for *_, side in walls:
            lo = self.Hy if side == "bottom" else lo
            hi = self.Hy + self.Ly - 1 if side == "top" else hi
        return lo, hi

    def pull_ranges(self, walls, wrap):
        """((xlo, xhi), (ylo, yhi)), the ranges pulls are mapped into: X is
        the physical columns when it wraps, else the padded width."""
        xs = (self.Hx, self.Hx + self.Lx - 1) if wrap[0] else (0, self.NX - 1)
        return xs, self.clamp_rows(walls, wrap[1])

    def check_halo(self, vs: VelocitySet):
        if self.Hx < vs.max_hop or self.Hy < vs.max_hop:
            raise AllocationError(
                f"halo ({self.Hx},{self.Hy}) thinner than stencil reach {vs.max_hop}"
            )


def site_index(geom: LatticeGeometry, l, x, y):
    """Storage offset of (population l, padded site x, y) under geom's layout."""
    if not (0 <= l < geom.Q and 0 <= x < geom.NX and 0 <= y < geom.NY):
        raise ContractViolation(f"index out of range: l={l} x={x} y={y}")
    if geom.layout == SOA:
        return l * geom.NX * geom.NY + x * geom.NY + y
    return (x * geom.NY + y) * geom.Q + l


class PopulationField:
    """One double-buffered half: Q x NX x NY double-precision scalars."""

    def __init__(self, geom: LatticeGeometry, role="prv", data=None):
        self.geom = geom
        self.role = role
        n = geom.Q * geom.NX * geom.NY
        if n > _MAX_SCALARS:
            raise AllocationError(f"field of {n} scalars exceeds addressable size")
        if data is None:
            shape = (
                (geom.Q, geom.NX, geom.NY)
                if geom.layout == SOA
                else (geom.NX, geom.NY, geom.Q)
            )
            data = np.zeros(shape, dtype=np.float64)
        self.data = data

    @property
    def pops(self):
        """Canonical (Q, NX, NY) view of the storage, any layout."""
        if self.geom.layout == SOA:
            return self.data
        return np.moveaxis(self.data, 2, 0)

    @property
    def flat(self):
        return self.data.reshape(-1)

    def converted(self, layout):
        """Copy of this field in the requested layout (bit-exact values)."""
        if layout == self.geom.layout:
            return PopulationField(self.geom, self.role, self.data.copy())
        geom = LatticeGeometry(
            self.geom.Lx, self.geom.Ly, self.geom.Hx, self.geom.Hy, self.geom.Q, layout
        )
        if layout == AOS:
            data = np.ascontiguousarray(np.moveaxis(self.data, 0, 2))
        else:
            data = np.ascontiguousarray(np.moveaxis(self.data, 2, 0))
        return PopulationField(geom, self.role, data)


def allocate_field(geom: LatticeGeometry, vs: VelocitySet):
    """Allocate the zeroed (prv, nxt) double buffer for geom under stencil vs."""
    if geom.Q != vs.Q:
        raise AllocationError(f"geometry Q={geom.Q} does not match {vs.name}")
    geom.check_halo(vs)
    return PopulationField(geom, "prv"), PopulationField(geom, "nxt")


def swap_buffers(prv: PopulationField, nxt: PopulationField):
    """Exchange buffer roles without copying data."""
    prv.role, nxt.role = nxt.role, prv.role
    return nxt, prv


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
