"""Simulated multi-rank execution: concurrent workers, halo exchange, schedules.

Ranks are threads inside one process.  They interact only through ordered
point-to-point channels carrying (step, payload) messages, mirroring MPI
send/recv semantics.  The X direction is a periodic ring; the Y direction is
a chain with walls at the ends (or a ring when periodic_y is set).

Only populations whose hop component crosses a face are exchanged: for halo
depth d the set {l : c_l . n >= d}, which for D2Q37 amounts to 26 values per
boundary site across the 3-deep halo.  The Y (non-contiguous) exchange covers
physical columns only and runs before the X (contiguous) exchange, so corner
halo cells pick up diagonal-neighbor data from the forwarded columns.
"""

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DeadlockError, ProtocolError,
                     ThermoLBError)
from .geometry import LatticeGeometry, allocate_field, swap_buffers
# The step calls only propagate_collide_fused and count_negative.  propagate,
# collide and bc stay imported because the benchmark's span tracer
# (perfbench/spans.py) wraps all five kernel names in this module's
# namespace; for the same reason the step calls the kernel through this
# module-level name.
from .kernels import (WALL_ROWS, bc, collide, count_negative,  # noqa: F401
                      propagate, propagate_collide_fused)
from .velocity_set import VelocitySet

DEFAULT_HALO = 3
_POLL = 0.05


@dataclass
class TileAssignment:
    """One rank's tile: extents, grid coordinates and neighbor table."""

    rank: int
    grid: tuple            # (nx, ny)
    coords: tuple          # (ix, iy)
    Lx: int
    Ly: int
    x0: int                # global offset of the tile's first physical column
    y0: int
    neighbors: dict        # {"left","right","up","down"} -> rank id or None
    uppermost: bool = False
    lowermost: bool = False


def _divisor_hint(L, axis):
    divs = [d for d in range(1, min(L, 64) + 1) if L % d == 0]
    return f"{axis} extent {L} divides only by {divs}"


def decompose(Lx, Ly, Np, tiling, periodic_y=False):
    """Split the lattice into Np uniform tiles with a consistent neighbor table.

    tiling is "1d" (split along X, ring) or a grid tuple (nx, ny).
    """
    if tiling == "1d":
        nx, ny = Np, 1
    else:
        nx, ny = tiling
    if nx * ny != Np:
        raise ConfigurationError(f"grid {nx}x{ny} does not match Np={Np}")
    if Lx % nx:
        raise ConfigurationError(
            f"Lx={Lx} not divisible by nx={nx}; " + _divisor_hint(Lx, "X"))
    if Ly % ny:
        raise ConfigurationError(
            f"Ly={Ly} not divisible by ny={ny}; " + _divisor_hint(Ly, "Y"))
    tx, ty = Lx // nx, Ly // ny
    tiles = []
    for iy in range(ny):
        for ix in range(nx):
            rank = iy * nx + ix
            left = iy * nx + (ix - 1) % nx
            right = iy * nx + (ix + 1) % nx
            if periodic_y:
                up = ((iy + 1) % ny) * nx + ix
                down = ((iy - 1) % ny) * nx + ix
            else:
                up = (iy + 1) * nx + ix if iy + 1 < ny else None
                down = (iy - 1) * nx + ix if iy > 0 else None
            tiles.append(TileAssignment(
                rank=rank, grid=(nx, ny), coords=(ix, iy), Lx=tx, Ly=ty,
                x0=ix * tx, y0=iy * ty,
                neighbors={"left": left, "right": right, "up": up, "down": down},
                uppermost=(not periodic_y) and iy == ny - 1,
                lowermost=(not periodic_y) and iy == 0,
            ))
    return tiles


def face_plans(vs: VelocitySet, depth=DEFAULT_HALO):
    """Population subsets crossing each face, per halo depth.

    plans[(axis, sign)][d-1] = indices l with sign * c_l[axis] >= d.
    """
    plans = {}
    for axis in (0, 1):
        for sign in (1, -1):
            per_depth = []
            for d in range(1, depth + 1):
                ls = np.nonzero(sign * vs.c[:, axis] >= d)[0]
                per_depth.append(ls)
            plans[(axis, sign)] = per_depth
    return plans


def boundary_bytes_per_site(vs: VelocitySet, depth=DEFAULT_HALO):
    """Bytes moved per boundary site across one face (the model's S)."""
    plan = face_plans(vs, depth)[(0, 1)]
    return 8 * sum(len(ls) for ls in plan)


class Fabric:
    """Point-to-point ordered channels plus a global abort flag."""

    def __init__(self, Np, timeout=60.0):
        self.Np = Np
        self.timeout = timeout
        self.channels = {}
        self.abort = threading.Event()
        self.failures = []
        self._lock = threading.Lock()

    def _chan(self, src, dst, tag):
        key = (src, dst, tag)
        with self._lock:
            if key not in self.channels:
                self.channels[key] = queue.Queue()
            return self.channels[key]

    def send(self, src, dst, tag, step, payload):
        self._chan(src, dst, tag).put((step, payload))

    def recv(self, dst, src, tag, step):
        chan = self._chan(src, dst, tag)
        deadline = time.monotonic() + self.timeout
        while True:
            if self.abort.is_set():
                raise ThermoLBError(f"rank {dst}: aborted by peer failure")
            try:
                got_step, payload = chan.get(timeout=_POLL)
            except queue.Empty:
                if time.monotonic() > deadline:
                    raise DeadlockError(
                        f"rank {dst} stalled waiting for rank {src} "
                        f"(tag {tag}, step {step})", rank=dst)
                continue
            if got_step != step:
                raise ProtocolError(
                    f"rank {dst}: expected step {step} from {src}/{tag}, "
                    f"got {got_step}")
            return payload

    def fail(self, rank, exc):
        with self._lock:
            self.failures.append((rank, exc))
        self.abort.set()


class RankWorker:
    """One rank: owns a tile's double buffer and runs the step loop."""

    def __init__(self, tile, vs, params, fabric, schedule="staged",
                 walls=True, layout="soa", halo=DEFAULT_HALO,
                 debug_poison=False):
        self.tile = tile
        self.vs = vs
        self.params = params
        self.fabric = fabric
        self.schedule = schedule
        self.walls = walls
        self.debug_poison = debug_poison
        self.geom = LatticeGeometry(tile.Lx, tile.Ly, halo, halo, vs.Q, layout)
        self.prv, self.nxt = allocate_field(self.geom, vs)
        self.plans = face_plans(vs, halo)
        self.halo = halo
        self.wall_rows = self._wall_rows()
        self.metrics = []
        self.snapshots = []
        # Persistent staging buffers, one per face, sized once at startup.
        g = self.geom
        self.buffers = {}
        for sign in (1, -1):
            n = sum(len(ls) for ls in self.plans[(0, sign)]) * g.NY
            self.buffers[("x", sign)] = np.empty(n)
            n = sum(len(ls) for ls in self.plans[(1, sign)]) * g.Lx
            self.buffers[("y", sign)] = np.empty(n)

    # -- halo exchange -----------------------------------------------------

    def _x_col(self, d, side):
        g = self.geom
        return g.Hx + g.Lx - d if side == "send+" else (
            g.Hx + d - 1 if side == "send-" else (
                g.Hx - d if side == "halo-" else g.Hx + g.Lx - 1 + d))

    def pack_x(self, f, sign):
        """Gather the outgoing X-face columns (full height) into staging."""
        g, buf, off = self.geom, self.buffers[("x", sign)], 0
        pops = f.pops
        for d, ls in enumerate(self.plans[(0, sign)], start=1):
            col = self._x_col(d, "send+" if sign == 1 else "send-")
            n = len(ls) * g.NY
            buf[off:off + n] = pops[ls, col, :].reshape(-1)
            off += n
        return buf

    def unpack_x(self, f, sign, payload):
        """Scatter a received X payload into this rank's halo columns.

        sign is the direction the data travelled: +1 means it came from the
        left neighbor and fills the low-x halo.
        """
        g, off = self.geom, 0
        if payload.size != self.buffers[("x", sign)].size:
            raise ProtocolError(f"rank {self.tile.rank}: X payload size mismatch")
        pops = f.pops
        for d, ls in enumerate(self.plans[(0, sign)], start=1):
            col = self._x_col(d, "halo-" if sign == 1 else "halo+")
            n = len(ls) * g.NY
            pops[ls, col, :] = payload[off:off + n].reshape(len(ls), g.NY)
            off += n

    def pack_y(self, f, sign):
        """Gather the outgoing Y-face rows (physical columns only)."""
        g, buf, off = self.geom, self.buffers[("y", sign)], 0
        pops = f.pops
        for e, ls in enumerate(self.plans[(1, sign)], start=1):
            row = g.Hy + g.Ly - e if sign == 1 else g.Hy + e - 1
            n = len(ls) * g.Lx
            buf[off:off + n] = pops[ls, g.phys_x, row].reshape(-1)
            off += n
        return buf

    def unpack_y(self, f, sign, payload):
        g, off = self.geom, 0
        if payload.size != self.buffers[("y", sign)].size:
            raise ProtocolError(f"rank {self.tile.rank}: Y payload size mismatch")
        pops = f.pops
        for e, ls in enumerate(self.plans[(1, sign)], start=1):
            row = g.Hy - e if sign == 1 else g.Hy + g.Ly - 1 + e
            n = len(ls) * g.Lx
            pops[ls, g.phys_x, row] = payload[off:off + n].reshape(len(ls), g.Lx)
            off += n

    def pbc_nc_send(self, f, step):
        nb = self.tile.neighbors
        if nb["up"] is not None:
            self.fabric.send(self.tile.rank, nb["up"], "y+", step,
                             self.pack_y(f, 1).copy())
        if nb["down"] is not None:
            self.fabric.send(self.tile.rank, nb["down"], "y-", step,
                             self.pack_y(f, -1).copy())

    def pbc_nc_recv(self, f, step):
        nb = self.tile.neighbors
        if nb["down"] is not None:
            self.unpack_y(f, 1, self.fabric.recv(self.tile.rank, nb["down"], "y+", step))
        if nb["up"] is not None:
            self.unpack_y(f, -1, self.fabric.recv(self.tile.rank, nb["up"], "y-", step))

    def pbc_nc(self, f, step):
        """Exchange non-contiguous (Y) halos via pack / transfer / unpack."""
        self.pbc_nc_send(f, step)
        self.pbc_nc_recv(f, step)

    def pbc_c_send(self, f, step):
        nb = self.tile.neighbors
        self.fabric.send(self.tile.rank, nb["right"], "x+", step,
                         self.pack_x(f, 1).copy())
        self.fabric.send(self.tile.rank, nb["left"], "x-", step,
                         self.pack_x(f, -1).copy())

    def pbc_c_recv(self, f, step):
        nb = self.tile.neighbors
        self.unpack_x(f, 1, self.fabric.recv(self.tile.rank, nb["left"], "x+", step))
        self.unpack_x(f, -1, self.fabric.recv(self.tile.rank, nb["right"], "x-", step))

    def pbc_c(self, f, step):
        """Exchange contiguous (X) halo columns around the periodic ring."""
        self.pbc_c_send(f, step)
        self.pbc_c_recv(f, step)

    # -- per-step machinery ------------------------------------------------

    def _poison_halos(self, f):
        g = self.geom
        pops = f.pops
        pops[:, :g.Hx, :] = np.nan
        pops[:, g.Hx + g.Lx:, :] = np.nan
        pops[:, :, :g.Hy] = np.nan
        pops[:, :, g.Hy + g.Ly:] = np.nan

    def _extend_wall_halos(self, f):
        # Wall ranks have no neighbor beyond the wall; extend the outermost
        # physical row into those halo rows so the pull into the bc rows is
        # deterministic and a uniform equilibrium stays a fixed point.  The
        # fused kernel rewrites the wall rows right after the gather.
        g = self.geom
        if self.tile.uppermost:
            f.pops[:, :, g.Hy + g.Ly:] = f.pops[:, :, g.Hy + g.Ly - 1:g.Hy + g.Ly]
        if self.tile.lowermost:
            f.pops[:, :, :g.Hy] = f.pops[:, :, g.Hy:g.Hy + 1]

    def _wall_rows(self):
        """(lo, hi, Twall) padded-y ranges of the wall rows on this tile."""
        g, p = self.geom, self.params
        rows = []
        if self.walls and self.tile.lowermost:
            rows.append((g.Hy, g.Hy + WALL_ROWS, p.Twall_bot))
        if self.walls and self.tile.uppermost:
            rows.append((g.Hy + g.Ly - WALL_ROWS, g.Hy + g.Ly, p.Twall_top))
        return tuple(rows)

    def _regions(self):
        """The overlapped schedule's bulk, then the left, right, bottom and
        top frames of WALL_ROWS sites around it."""
        g, h = self.geom, WALL_ROWS
        x_lo, x_hi = g.Hx, g.Hx + g.Lx
        y_lo, y_hi = g.Hy, g.Hy + g.Ly
        mid_x = slice(min(x_lo + h, x_hi), max(x_hi - h, x_lo + h))
        mid_y = slice(min(y_lo + h, y_hi), max(y_hi - h, y_lo + h))
        return [(mid_x, mid_y),
                (slice(x_lo, min(x_lo + h, x_hi)), mid_y),
                (slice(max(x_hi - h, x_lo), x_hi), mid_y),
                (slice(x_lo, x_hi), slice(y_lo, min(y_lo + h, y_hi))),
                (slice(x_lo, x_hi), slice(max(y_hi - h, y_lo), y_hi))]

    def step(self, step_no):
        t = {}
        prv, nxt = self.prv, self.nxt
        if self.debug_poison:
            self._poison_halos(prv)
        if self.walls:
            self._extend_wall_halos(prv)
        t0 = time.perf_counter()
        has_y = (self.tile.neighbors["up"] is not None
                 or self.tile.neighbors["down"] is not None)
        if has_y:
            self.pbc_nc(prv, step_no)
        t1 = time.perf_counter()
        t["t_comm_nc"] = t1 - t0
        if self.schedule == "staged":
            self.pbc_c(prv, step_no)
            t2 = time.perf_counter()
            t["t_comm_c"] = t2 - t1
            propagate_collide_fused(prv, nxt, self.params, self.vs,
                                    walls=self.wall_rows)
            t["t_bulk"] = time.perf_counter() - t2
            t["t_border"] = 0.0
        else:
            # Post the contiguous-halo sends, run the fused bulk while the
            # transfers are in flight, then finish the border frames.
            bulk, *frames = self._regions()
            self.pbc_c_send(prv, step_no)
            t2 = time.perf_counter()
            t["t_comm_c"] = t2 - t1
            propagate_collide_fused(prv, nxt, self.params, self.vs, bulk,
                                    self.wall_rows)
            t3 = time.perf_counter()
            t["t_bulk"] = t3 - t2
            self.pbc_c_recv(prv, step_no)
            t4 = time.perf_counter()
            t["t_comm_c"] += t4 - t3
            for region in frames:
                propagate_collide_fused(prv, nxt, self.params, self.vs,
                                        region, self.wall_rows)
            t["t_border"] = time.perf_counter() - t4
        t["negatives"] = count_negative(nxt.pops[:, self.geom.phys_x,
                                                 self.geom.phys_y])
        self.prv, self.nxt = swap_buffers(self.prv, self.nxt)
        self.metrics.append(t)

    def physical_block(self):
        g = self.geom
        return np.ascontiguousarray(self.prv.pops[:, g.phys_x, g.phys_y])
