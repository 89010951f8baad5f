"""Simulated multi-rank execution: concurrent workers, halo exchange, schedules.

Ranks are threads inside one process.  They interact only through ordered
point-to-point channels carrying (step, payload) messages, mirroring MPI
send/recv semantics.  The X direction is a periodic ring; the Y direction is
a chain with walls at the ends (or a ring when periodic_y is set).

Only populations whose hop component crosses a face are exchanged: for halo
depth d the set {l : c_l . n >= d}, which for D2Q37 amounts to 26 values per
boundary site across the 3-deep halo.  Each worker builds a face table once,
whose flat storage indices make every pack one gather and every unpack one
scatter, for either axis and layout.  The Y (non-contiguous) faces cover
physical columns only and are exchanged before the X (contiguous) faces,
which span the full padded height, so corner halo cells pick up
diagonal-neighbor data from the forwarded columns.

A step makes one kernel call per region group.  The staged schedule
exchanges Y, then X, then runs the whole tile.  The overlapped schedule
exchanges Y, posts the X sends, runs the bulk (full height, all but a
max_hop-wide frame at each X edge) while they are in flight, receives X and
runs both frames in one call.  Each worker builds a native.Plan on its first
step, so every call passes prebuilt kernel arguments; the kernel also
returns the step's count of negative populations.
"""

import queue
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import native
from .errors import (ConfigurationError, ContractViolation, DeadlockError,
                     PeerAbortedError, ProtocolError)
from .geometry import LatticeGeometry, allocate_field, swap_buffers
# The step calls only propagate_collide_fused, which also counts the
# negative values it writes.  propagate, collide, bc and count_negative stay
# imported because the benchmark's span tracer (perfbench/spans.py) wraps
# all five kernel names in this module's namespace; for the same reason the
# step calls the kernel through this module-level name.
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
                raise PeerAbortedError(f"rank {dst}: aborted by peer failure")
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


class Face(NamedTuple):
    """One entry of a rank's face table.  sign +1 sends the up (Y) or right
    (X) edge to dst and fills the low halo from src; sign -1 mirrors both.
    The indices are flat storage offsets, in payload order."""

    axis: int               # 0 = X (contiguous), 1 = Y (non-contiguous)
    sign: int
    dst: "int | None"
    src: "int | None"
    tag: str
    send_index: np.ndarray
    halo_index: np.ndarray


# (axis, sign) -> (neighbor sent to, neighbor received from); Y before X.
_FACES = {(1, 1): ("up", "down"), (1, -1): ("down", "up"),
          (0, 1): ("right", "left"), (0, -1): ("left", "right")}


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
        self.faces = self._face_table()
        self.bulk, self.frames = self._regions()
        self.plan = None       # native.Plan, built on the first step
        self.metrics = []
        self.snapshots = []

    # -- halo exchange -----------------------------------------------------

    def _face_table(self):
        """Build the four faces, Y before X; reject tiles too thin to
        exchange or to hold their wall rows."""
        g, t = self.geom, self.tile
        for field in (self.prv, self.nxt):
            if not np.may_share_memory(field.flat, field.data):
                raise ContractViolation(
                    f"rank {t.rank}: population storage is not contiguous")
        if self.wall_rows and g.Ly < WALL_ROWS:
            raise ConfigurationError(
                f"rank {t.rank}: tile Y extent {g.Ly} is narrower than the "
                f"{WALL_ROWS} wall rows")
        pops = self.prv.pops
        strides = [s // pops.itemsize for s in pops.strides]   # (l, x, y)
        spans = (np.arange(g.NY), np.arange(g.Hx, g.Hx + g.Lx))
        faces = {}
        for (axis, sign), (to, frm) in _FACES.items():
            dst, src = t.neighbors[to], t.neighbors[frm]
            h, n = (g.Hx, g.Hy)[axis], (g.Lx, g.Ly)[axis]
            if (dst is not None or src is not None) and n < self.vs.max_hop:
                raise ConfigurationError(
                    f"rank {t.rank}: tile {'XY'[axis]} extent {n} is "
                    f"narrower than the stencil reach {self.vs.max_hop}")
            send, fill = [], []
            for d, ls in enumerate(self.plans[(axis, sign)], start=1):
                base = (ls[:, None] * strides[0]
                        + spans[axis][None, :] * strides[2 - axis])
                send.append(base + (h + n - d if sign == 1 else h + d - 1)
                            * strides[1 + axis])
                fill.append(base + (h - d if sign == 1 else h + n - 1 + d)
                            * strides[1 + axis])
            faces[(axis, sign)] = Face(
                axis, sign, dst, src, "xy"[axis] + ("+" if sign == 1 else "-"),
                np.concatenate([i.ravel() for i in send]),
                np.concatenate([i.ravel() for i in fill]))
        return faces

    def _unpack(self, f, axis, sign, payload):
        face = self.faces[(axis, sign)]
        if payload.size != face.halo_index.size:
            raise ProtocolError(f"rank {self.tile.rank}: "
                                f"{'XY'[axis]} payload size mismatch")
        f.flat[face.halo_index] = payload

    # perfbench's span tracer wraps these four names; send and recv look
    # them up on the worker at call time so the wrappers see every call.
    def pack_x(self, f, sign):
        return f.flat.take(self.faces[(0, sign)].send_index)

    def unpack_x(self, f, sign, payload):
        self._unpack(f, 0, sign, payload)

    def pack_y(self, f, sign):
        return f.flat.take(self.faces[(1, sign)].send_index)

    def unpack_y(self, f, sign, payload):
        self._unpack(f, 1, sign, payload)

    def send(self, f, step, axis):
        """Pack and post this rank's faces along axis."""
        pack = self.pack_y if axis else self.pack_x
        for face in self.faces.values():
            if face.axis == axis and face.dst is not None:
                self.fabric.send(self.tile.rank, face.dst, face.tag, step,
                                 pack(f, face.sign))

    def recv(self, f, step, axis):
        """Receive and unpack this rank's halos along axis."""
        unpack = self.unpack_y if axis else self.unpack_x
        for face in self.faces.values():
            if face.axis == axis and face.src is not None:
                unpack(f, face.sign, self.fabric.recv(
                    self.tile.rank, face.src, face.tag, step))

    def exchange(self, f, step, axis):
        self.send(f, step, axis)
        self.recv(f, step, axis)

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
        """The overlapped schedule's bulk and its left and right frames.

        The bulk spans the tile's full height: its pulls stay inside the
        physical columns and reach only the Y halos, which are exchanged
        before it starts.  The frames are vs.max_hop columns wide, the reach
        of the stencil into the X halos.  The three partition the tile; a
        tile narrower than two frames gets an empty bulk."""
        g, h = self.geom, self.vs.max_hop
        x_lo, x_hi = g.Hx, g.Hx + g.Lx
        x_a = min(x_lo + h, x_hi)
        x_b = max(x_hi - h, x_a)
        ys = g.phys_y
        return (slice(x_a, x_b), ys), [(slice(x_lo, x_a), ys),
                                       (slice(x_b, x_hi), ys)]

    def step(self, step_no):
        t = {}
        prv, nxt = self.prv, self.nxt
        if self.plan is None:
            self.plan = native.Plan(prv, nxt, self.params, self.vs,
                                    self.wall_rows)
        if self.debug_poison:
            self._poison_halos(prv)
        if self.walls:
            self._extend_wall_halos(prv)
        t0 = time.perf_counter()
        self.exchange(prv, step_no, 1)
        t1 = time.perf_counter()
        t["t_comm_nc"] = t1 - t0
        if self.schedule == "staged":
            self.exchange(prv, step_no, 0)
            t2 = time.perf_counter()
            t["t_comm_c"] = t2 - t1
            negatives = propagate_collide_fused(
                prv, nxt, self.params, self.vs, None, self.wall_rows,
                self.plan)
            t["t_bulk"] = time.perf_counter() - t2
            t["t_border"] = 0.0
        else:
            # Post the contiguous-halo sends, run the fused bulk while the
            # transfers are in flight, then finish both border frames in
            # one call.
            self.send(prv, step_no, 0)
            t2 = time.perf_counter()
            t["t_comm_c"] = t2 - t1
            negatives = propagate_collide_fused(
                prv, nxt, self.params, self.vs, self.bulk, self.wall_rows,
                self.plan)
            t3 = time.perf_counter()
            t["t_bulk"] = t3 - t2
            self.recv(prv, step_no, 0)
            t4 = time.perf_counter()
            t["t_comm_c"] += t4 - t3
            negatives += propagate_collide_fused(
                prv, nxt, self.params, self.vs, self.frames, self.wall_rows,
                self.plan)
            t["t_border"] = time.perf_counter() - t4
        t["negatives"] = negatives
        self.prv, self.nxt = swap_buffers(self.prv, self.nxt)
        self.metrics.append(t)

    def physical_block(self):
        g = self.geom
        return np.ascontiguousarray(self.prv.pops[:, g.phys_x, g.phys_y])
