"""The three computational kernels: propagate (pull), bc, collide.

Every per-site reduction over populations is written as an explicit loop in a
fixed l order, so results are bit-identical for any region shape.  That is
the property that lets staged and fused schedules, and any tiling of the
lattice, produce the same state to the last bit.

propagate_collide_fused, the entry point the runtime steps with, also has a
compiled form (fused.c, loaded by native.py) that mirrors these expressions
term for term and gives the same bits; the numpy code here is its fallback
and its reference.
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
    """Relaxation time, body force and wall temperatures (lattice units)."""

    tau: float
    gx: float = 0.0
    gy: float = 0.0
    dt: float = 1.0
    D: int = 2
    Twall_top: float = 1.0
    Twall_bot: float = 1.0
    eq_order: int | None = None  # None: use the stencil's supported order

    def __post_init__(self):
        if self.tau <= self.dt / 2:
            raise DomainError(f"tau={self.tau} violates tau > dt/2")
        if self.D != 2:
            raise DomainError("only D=2 is supported")


def moments(f, vs: VelocitySet, check=True):
    """Density, velocity and temperature of a (Q, ...) population block.

    rho = sum_l f_l ; rho u = sum_l c_l f_l ; D rho T = sum_l |c_l - u|^2 f_l.
    """
    f = np.asarray(f)
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
    if check and not np.all(rho > 0.0):
        bad = np.argwhere(~(rho > 0.0))
        raise DegenerateStateError(
            f"non-positive density at {bad[:5].tolist()}", sites=bad
        )
    ux = mx / rho
    uy = my / rho
    # D rho T = e2 - 2 u.m + |u|^2 rho, with m = rho u this is e2 - rho |u|^2.
    T = (e2 - rho * (ux * ux + uy * uy)) / (2.0 * rho)
    return rho, ux, uy, T


def equilibrium(rho, ux, uy, T, vs: VelocitySet, order=None, check=True):
    """Hermite expansion of the shifted Maxwellian, truncated at `order`.

    Order 4 is supported by the D2Q37 quadrature, order 2 by D2Q9.  At
    u = 0, T = cs2 the result is exactly rho * w_l.
    """
    if order is None:
        order = vs.eq_order
    if order not in (2, 3, 4):
        raise DomainError(f"unsupported expansion order {order}")
    rho = np.asarray(rho, dtype=np.float64)
    if check and (not np.all(rho > 0.0) or not np.all(np.asarray(T) > 0.0)):
        raise DomainError("equilibrium requires rho > 0 and T > 0")
    cs = np.sqrt(vs.cs2)
    vx = np.asarray(ux) / cs
    vy = np.asarray(uy) / cs
    theta = np.asarray(T) / vs.cs2 - 1.0
    s = vx * vx + vy * vy
    D = 2.0
    out = np.empty((vs.Q,) + rho.shape, dtype=np.float64)
    for l in range(vs.Q):
        ex = vs.c[l, 0] / cs
        ey = vs.c[l, 1] / cs
        q = ex * ex + ey * ey
        p = ex * vx + ey * vy
        poly = 1.0 + p
        c2 = p * p + theta * q - (s + D * theta)
        poly = poly + 0.5 * c2
        if order >= 3:
            c3 = p * p * p + 3.0 * theta * q * p - 3.0 * p * (s + (D + 2.0) * theta)
            poly = poly + c3 / 6.0
        if order >= 4:
            c4 = (
                p * p * p * p
                + 6.0 * theta * q * p * p
                + 3.0 * theta * theta * q * q
                - 6.0
                * (
                    s * p * p
                    + theta * ((D + 4.0) * p * p + q * s)
                    + theta * theta * (D + 2.0) * q
                )
                + 3.0
                * (
                    s * s
                    + (2.0 * D + 4.0) * theta * s
                    + D * (D + 2.0) * theta * theta
                )
            )
            poly = poly + c4 / 24.0
        out[l] = vs.w[l] * rho * poly
    return out


def apply_shift(ux, uy, T, params: PhysicsParams):
    """Body-force shift: u_bar = u + tau g,  T_bar = T - tau^2 g^2 / D."""
    ub = np.asarray(ux) + params.tau * params.gx
    vb = np.asarray(uy) + params.tau * params.gy
    g2 = params.gx * params.gx + params.gy * params.gy
    Tb = np.asarray(T) - params.tau * params.tau * g2 / params.D
    if not np.all(Tb > 0.0):
        raise DomainError("shifted temperature T_bar <= 0")
    return ub, vb, Tb


def collide(f, params: PhysicsParams, vs: VelocitySet):
    """BGK relaxation of a gathered (Q, ...) block toward shifted equilibrium."""
    f = np.asarray(f)
    rho, ux, uy, T = moments(f, vs)
    ub, vb, Tb = apply_shift(ux, uy, T, params)
    feq = equilibrium(rho, ub, vb, Tb, vs, order=params.eq_order, check=False)
    omega = params.dt / params.tau
    return f - omega * (f - feq)


def _check_region(geom: LatticeGeometry, region):
    xs, ys = region
    xs = slice(*xs.indices(geom.NX))
    ys = slice(*ys.indices(geom.NY))
    px, py = geom.phys_x, geom.phys_y
    if xs.start < px.start or xs.stop > px.stop or ys.start < py.start or ys.stop > py.stop:
        raise ContractViolation(f"region {region} extends into the halo")
    return xs, ys


def _gather(prv_pops, vs: VelocitySet, xs, ys):
    """Pull gather: scratch[l] = prv[l, x - cx, y - cy] over the region."""
    out = np.empty((vs.Q, xs.stop - xs.start, ys.stop - ys.start))
    for l in range(vs.Q):
        dx, dy = int(vs.c[l, 0]), int(vs.c[l, 1])
        out[l] = prv_pops[l, xs.start - dx : xs.stop - dx, ys.start - dy : ys.stop - dy]
    return out


def propagate(prv: PopulationField, nxt: PopulationField, vs: VelocitySet, region=None):
    """Pull streaming: nxt_l(x) = prv_l(x - c_l) on the region (physical sites)."""
    geom = prv.geom
    if region is None:
        region = (geom.phys_x, geom.phys_y)
    xs, ys = _check_region(geom, region)
    src, dst = prv.pops, nxt.pops
    for l in range(vs.Q):
        dx, dy = int(vs.c[l, 0]), int(vs.c[l, 1])
        dst[l, xs, ys] = src[l, xs.start - dx : xs.stop - dx, ys.start - dy : ys.stop - dy]


def _wall_equilibrium(block, Twall, params: PhysicsParams, vs: VelocitySet):
    """Equilibrium at the block's own density, zero velocity and Twall."""
    rho = np.zeros(block.shape[1:])
    for l in range(vs.Q):
        rho = rho + block[l]
    zero = np.zeros_like(rho)
    Tw = np.full_like(rho, Twall)
    return equilibrium(rho, zero, zero, Tw, vs, order=params.eq_order)


def bc(field: PopulationField, params: PhysicsParams, vs: VelocitySet,
       top=True, bottom=True, x_range=None):
    """Rewrite the 3 rows nearest each wall to fixed temperature, zero velocity.

    Populations become the local equilibrium at the pre-bc density, so the
    kernel conserves mass in the wall rows.  Runs strictly after propagate.
    """
    geom = field.geom
    pops = field.pops
    xs = geom.phys_x if x_range is None else x_range
    rows = []
    if bottom:
        rows.append(slice(geom.Hy, geom.Hy + WALL_ROWS))
    if top:
        rows.append(slice(geom.Hy + geom.Ly - WALL_ROWS, geom.Hy + geom.Ly))
    walls = [params.Twall_bot, params.Twall_top]
    for ys, Twall in zip(rows, walls if bottom else [params.Twall_top]):
        pops[:, xs, ys] = _wall_equilibrium(pops[:, xs, ys], Twall, params, vs)


def propagate_collide_fused(prv: PopulationField, nxt: PopulationField,
                            params: PhysicsParams, vs: VelocitySet,
                            region=None, walls=(), plan=None):
    """Gather, wall rewrite and collide in one pass over one or more regions.

    region is one (xs, ys) pair of physical slices or a list of them; None
    means the whole physical tile.  walls lists (lo, hi, Twall) padded-y
    ranges.  A region's rows inside one are set to the wall equilibrium
    (gathered density, zero velocity, Twall) before the collision, so the
    result is bit-identical to staged propagate -> bc -> collide.

    The compiled kernel does all regions in one call when it is available,
    through plan (a native.Plan) when it serves these arguments, otherwise
    through a throwaway one.  When the kernel is unavailable or refuses the
    call (a degenerate state), the numpy path below reruns every region and
    raises the typed error.  Both paths give the same bits.  Returns the
    number of negative population values written.
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
    if plan is None or not plan.serves(prv, nxt, params, vs, walls):
        plan = native.Plan(prv, nxt, params, vs, walls)
    negatives = plan.run(prv, nxt, boxes)
    if negatives is not None:
        return negatives
    negatives = 0
    for xs, ys in boxes:
        scratch = _gather(prv.pops, vs, xs, ys)
        for lo, hi, Twall in walls:
            rows = slice(max(lo, ys.start) - ys.start,
                         min(hi, ys.stop) - ys.start)
            if rows.start < rows.stop:
                scratch[:, :, rows] = _wall_equilibrium(scratch[:, :, rows],
                                                        Twall, params, vs)
        nxt.pops[:, xs, ys] = collide(scratch, params, vs)
        negatives += count_negative(nxt.pops[:, xs, ys])
    return negatives


def count_negative(f):
    """Number of negative population values (monitoring only, never asserted)."""
    return int(np.count_nonzero(np.asarray(f) < 0.0))
