"""The three computational kernels: propagate (pull), bc, collide.

Every per-site reduction over populations is written as an explicit loop in a
fixed l order, so results are bit-identical for any region shape.  That is
the property that lets staged and fused schedules, and any tiling of the
lattice, produce the same state to the last bit.

propagate_collide_fused, the entry point the runtime steps with, has a
compiled form (fused.c, loaded by native.py) that mirrors these expressions
term for term and gives the same bits; so do equilibrium and moments, which
call their compiled forms on float64 arrays of at least one dimension and
one shape.  In each case the numpy code here is the fallback and the
reference: the fused kernel's is the staged step itself, propagate, the
wall rewrite of bc and collide, run box by box.
"""

from dataclasses import dataclass

import numpy as np

from . import native
from .errors import ContractViolation, DegenerateStateError, DomainError
from .geometry import LatticeGeometry, PopulationField
from .velocity_set import VelocitySet

# Rows adjacent to each wall rewritten by the bc kernel.
WALL_ROWS = 3


@dataclass(frozen=True)
class PhysicsParams:
    """Relaxation time, body force and wall temperatures (lattice units;
    the time step is 1 and the lattice two-dimensional)."""

    tau: float
    gx: float = 0.0
    gy: float = 0.0
    Twall_top: float = 1.0
    Twall_bot: float = 1.0
    eq_order: int | None = None  # None: use the stencil's supported order

    def __post_init__(self):
        if not self.tau > 0.5:
            raise DomainError(f"tau={self.tau} violates tau > 0.5")


def check_density(rho):
    """Raise DegenerateStateError naming the sites where rho is not > 0."""
    if not np.all(rho > 0.0):
        bad = np.argwhere(~(rho > 0.0))
        raise DegenerateStateError(
            f"non-positive density at {bad[:5].tolist()}", sites=bad
        )


def moments(f, vs: VelocitySet, check=True):
    """Density, velocity and temperature of a (Q, ...) population block.

    rho = sum_l f_l ; rho u = sum_l c_l f_l ; D rho T = sum_l |c_l - u|^2 f_l.
    A float64 block of at least one site dimension takes the compiled form,
    unless some density is not > 0: the numpy code below then reruns it and
    raises, or warns, as it always has.
    """
    f = np.asarray(f)
    compiled = native.moments(f, vs)
    if compiled is not None:
        return compiled
    cx = vs.c[:, 0].astype(np.float64)
    cy = vs.c[:, 1].astype(np.float64)
    rho = np.zeros(f.shape[1:])
    mx = np.zeros_like(rho)
    my = np.zeros_like(rho)
    e2 = np.zeros_like(rho)
    for l in range(vs.Q):
        rho = rho + f[l]
        if cx[l] != 0.0:
            mx = mx + cx[l] * f[l]
        if cy[l] != 0.0:
            my = my + cy[l] * f[l]
        c2 = cx[l] * cx[l] + cy[l] * cy[l]
        if c2 != 0.0:
            e2 = e2 + c2 * f[l]
    if check:
        check_density(rho)
    ux = mx / rho
    uy = my / rho
    # D rho T = e2 - 2 u.m + |u|^2 rho, with m = rho u this is e2 - rho |u|^2.
    T = (e2 - rho * (ux * ux + uy * uy)) / (2.0 * rho)
    return rho, ux, uy, T


# The 1/6 of p^3 / 6 and the 1/24 of p^4 / 24 (INV6 and INV24 in fused.c).
INV6 = 1.0 / 6.0
INV24 = 1.0 / 24.0


def shell_coefficients(q, theta, s, order):
    """The Hermite coefficients (a0, a1, a2) of the shell |e|^2 = q at sites
    with theta = T / cs2 - 1 and s = |v|^2, v = u / cs (see equilibrium).
    a1 is None below order 3 and a2 below order 4, where they are 1 and 1/2.
    """
    D = 2.0
    tq = theta * q
    a0 = 1.0 + 0.5 * (tq - (s + D * theta))
    a1 = a2 = None
    if order >= 3:
        a1 = 1.0 + 0.5 * (tq - (s + (D + 2.0) * theta))
    if order >= 4:
        th2 = theta * theta
        K = (3.0 * (tq * tq)
             - 6.0 * (tq * s + th2 * ((D + 2.0) * q))
             + 3.0 * (s * s + (2.0 * D + 4.0) * theta * s
                      + D * (D + 2.0) * th2))
        a0 = a0 + K * INV24
        a2 = 0.5 + 0.25 * (tq - (s + (D + 4.0) * theta))
    return a0, a1, a2


def equilibrium(rho, ux, uy, T, vs: VelocitySet, order=None, check=True):
    """Hermite expansion of the shifted Maxwellian, truncated at `order`.

    Order 4 is supported by the D2Q37 quadrature, order 2 by D2Q9.  With
    e = c_l / cs, v = u / cs, theta = T / cs2 - 1, s = |v|^2 and p = e.v,
    the expansion regrouped in powers of p is
        f_l = w_l rho (a0 + p^2 (a2 + p^2 / 24) + p (a1 + p^2 / 6)),
    where the coefficients depend on the site and on the shell q = |e|^2
    alone (shell_coefficients), so they are computed once per shell
    (native.shells).  Order 3 drops the p^4 term and has a2 = 1/2; order 2
    also drops the p^3 term and has a1 = 1.  At u = 0, T = cs2 the result is
    exactly rho * w_l.  Float64 arrays of one shape with at least one
    dimension take the compiled form.
    """
    if order is None:
        order = vs.eq_order
    if order not in (2, 3, 4):
        raise DomainError(f"unsupported expansion order {order}")
    rho = np.asarray(rho, dtype=np.float64)
    if check and (not np.all(rho > 0.0) or not np.all(np.asarray(T) > 0.0)):
        raise DomainError("equilibrium requires rho > 0 and T > 0")
    compiled = native.equilibrium(rho, ux, uy, T, vs, order)
    if compiled is not None:
        return compiled
    cs = np.sqrt(vs.cs2)
    vx = np.asarray(ux) / cs
    vy = np.asarray(uy) / cs
    theta = np.asarray(T) / vs.cs2 - 1.0
    s = vx * vx + vy * vy
    out = np.empty((vs.Q,) + rho.shape, dtype=np.float64)
    e = vs.c / cs
    for shell in native.shells(vs):
        ex, ey = e[shell[0][0]]
        a0, a1, a2 = shell_coefficients(ex * ex + ey * ey, theta, s, order)
        for l in {l for pair in shell for l in pair}:
            p = e[l, 0] * vx + e[l, 1] * vy
            p2 = p * p
            if order >= 4:
                even = a0 + p2 * (a2 + p2 * INV24)
            else:
                even = a0 + p2 * 0.5
            odd = p * (a1 + p2 * INV6) if order >= 3 else p
            out[l] = vs.w[l] * rho * (even + odd)
    return out


def apply_shift(ux, uy, T, params: PhysicsParams):
    """Body-force shift: u_bar = u + tau g,  T_bar = T - tau^2 g^2 / 2."""
    ub = np.asarray(ux) + params.tau * params.gx
    vb = np.asarray(uy) + params.tau * params.gy
    g2 = params.gx * params.gx + params.gy * params.gy
    Tb = np.asarray(T) - params.tau * params.tau * g2 / 2
    if not np.all(Tb > 0.0):
        raise DomainError("shifted temperature T_bar <= 0")
    return ub, vb, Tb


def collide(f, params: PhysicsParams, vs: VelocitySet):
    """BGK relaxation of a gathered (Q, ...) block toward shifted equilibrium."""
    f = np.asarray(f)
    rho, ux, uy, T = moments(f, vs)
    ub, vb, Tb = apply_shift(ux, uy, T, params)
    feq = equilibrium(rho, ub, vb, Tb, vs, order=params.eq_order, check=False)
    omega = 1.0 / params.tau
    return f - omega * (f - feq)


def _check_region(geom: LatticeGeometry, region):
    xs, ys = region
    xs = slice(*xs.indices(geom.NX))
    ys = slice(*ys.indices(geom.NY))
    px, py = geom.phys_x, geom.phys_y
    if xs.start < px.start or xs.stop > px.stop or ys.start < py.start or ys.stop > py.stop:
        raise ContractViolation(f"region {region} extends into the halo")
    return xs, ys


def _pulled(start, stop, lo, hi, wrap):
    """Pulled indices start .. stop-1 mapped into [lo, hi]: shifted by the
    range's length when wrap is set, else clamped; a slice when none moves."""
    if lo <= start and stop - 1 <= hi:
        return slice(start, stop)
    i = np.arange(start, stop)
    return lo + (i - lo) % (hi - lo + 1) if wrap else np.clip(i, lo, hi)


def propagate(prv: PopulationField, nxt: PopulationField, vs: VelocitySet,
              region=None, walls=(), wrap=(False, False)):
    """Pull streaming: nxt_l(x) = prv_l(x - c_l) on the region (physical
    sites), each pulled axis mapped into its range of geom.pull_ranges(walls,
    wrap).  With the defaults every pull reads the halo."""
    geom = prv.geom
    if region is None:
        region = (geom.phys_x, geom.phys_y)
    xs, ys = _check_region(geom, region)
    pull = geom.pull_ranges(walls, wrap)
    src, dst = prv.pops, nxt.pops
    for l in range(vs.Q):
        dx, dy = int(vs.c[l, 0]), int(vs.c[l, 1])
        cols = _pulled(xs.start - dx, xs.stop - dx, *pull[0], wrap[0])
        rows = _pulled(ys.start - dy, ys.stop - dy, *pull[1], wrap[1])
        dst[l, xs, ys] = src[l, cols][:, rows]


def _rewrite_walls(pops, walls, xs, ys, params: PhysicsParams,
                   vs: VelocitySet):
    """Set the box's rows inside each wall range (lo, hi, Twall, side) to
    the equilibrium at their own density, zero velocity and Twall."""
    for lo, hi, Twall, _ in walls:
        rows = slice(max(lo, ys.start), min(hi, ys.stop))
        if rows.start >= rows.stop:
            continue
        block = pops[:, xs, rows]
        rho = np.zeros(block.shape[1:])
        for l in range(vs.Q):
            rho = rho + block[l]
        zero = np.zeros_like(rho)
        pops[:, xs, rows] = equilibrium(rho, zero, zero,
                                        np.full_like(rho, Twall), vs,
                                        order=params.eq_order)


def wall_rows(geom: LatticeGeometry, params: PhysicsParams, bottom, top):
    """(lo, hi, Twall, side) padded-y ranges of the WALL_ROWS rows nearest
    each wall present, bottom first; on a tile WALL_ROWS high one range
    spans both edges."""
    rows = []
    if bottom:
        rows.append((geom.Hy, geom.Hy + WALL_ROWS, params.Twall_bot, "bottom"))
    if top:
        rows.append((geom.Hy + geom.Ly - WALL_ROWS, geom.Hy + geom.Ly,
                     params.Twall_top, "top"))
    return tuple(rows)


def bc(field: PopulationField, params: PhysicsParams, vs: VelocitySet,
       top=True, bottom=True):
    """Rewrite the 3 rows nearest each wall to fixed temperature, zero velocity.

    Populations become the local equilibrium at the pre-bc density, so the
    kernel conserves mass in the wall rows.  Runs strictly after propagate.
    """
    geom = field.geom
    _rewrite_walls(field.pops, wall_rows(geom, params, bottom, top),
                   geom.phys_x, geom.phys_y, params, vs)


def propagate_collide_fused(prv: PopulationField, nxt: PopulationField,
                            params: PhysicsParams, vs: VelocitySet,
                            region=None, walls=(), plan=None,
                            wrap=(False, False)):
    """Pull, wall rewrite and collide in one pass over one or more regions.

    region is one (xs, ys) pair of physical slices or a list of them; None
    means the whole physical tile.  walls lists (lo, hi, Twall, side)
    padded-y ranges, side "bottom" or "top".  A region's rows inside one
    are set to the wall equilibrium (pulled density, zero velocity, Twall)
    before the collision.  Pulls from beyond a wall read the outermost
    physical row on its side, as on a field whose rows beyond each wall
    repeat its edge row.  wrap = (x, y) marks the axes that are periodic
    within the tile: a pull across one reads the physical site one tile
    length away, never the halo, as on a tile whose halos along it hold the
    periodic copy (geom.pull_ranges maps both cases).

    The compiled kernel does all regions in one call when it is available,
    through plan (a native.Plan) when it serves these arguments, otherwise
    through a throwaway one.  When the kernel is unavailable or refuses the
    call (a degenerate state), the staged step below (propagate, the wall
    rewrite, collide) reruns every region in place in nxt and raises the
    typed error; both give the same bits.  Returns the number of negative
    population values written.
    """
    geom = prv.geom
    if region is None:
        region = (geom.phys_x, geom.phys_y)
    boxes = []
    for r in [region] if isinstance(region[0], slice) else region:
        xs, ys = _check_region(geom, r)
        if xs.start < xs.stop and ys.start < ys.stop:
            boxes.append((xs, ys))
    if not boxes:
        return 0
    if plan is None or not plan.serves(prv, nxt, params, vs, walls, wrap):
        plan = native.Plan(prv, nxt, params, vs, walls, wrap)
    negatives = plan.run(prv, nxt, boxes)
    if negatives is not None:
        return negatives
    negatives = 0
    for xs, ys in boxes:
        propagate(prv, nxt, vs, (xs, ys), walls, wrap)
        _rewrite_walls(nxt.pops, walls, xs, ys, params, vs)
        nxt.pops[:, xs, ys] = collide(nxt.pops[:, xs, ys], params, vs)
        negatives += count_negative(nxt.pops[:, xs, ys])
    return negatives


def count_negative(f):
    """Number of negative population values (monitoring only, never asserted)."""
    return int(np.count_nonzero(np.asarray(f) < 0.0))
