"""Simulated multi-rank execution: concurrent workers, halo exchange, schedules.

Ranks are threads inside one process.  They interact only through ordered
point-to-point channels carrying (step, payload) messages, mirroring MPI
send/recv semantics.  The X direction is a periodic ring; the Y direction is
a chain with walls at the ends (or a ring when periodic_y is set).

Only populations whose hop component crosses a face are exchanged: for halo
depth d the set {l : c_l . n >= d}, which for D2Q37 amounts to 26 values per
boundary site across the 3-deep halo.  Each worker builds a face table once,
whose flat indices into the (Q, NX, NY) populations make every pack one
gather and every unpack one scatter, for either axis.  The Y
(non-contiguous) faces cover physical columns only and are exchanged before
the X (contiguous) faces, which span the rows the kernel reads
(LatticeGeometry.pull_ranges); that order serves only to forward
diagonal-neighbor data into the corner halo cells.  An axis whose
neighbours on both sides are the rank itself (X when the grid is one tile
wide, Y on a periodic ring one tile high) wraps: the kernel pulls
across it from the tile itself, so its faces are neither copied nor sent.

A step is one sequence for both schedules: exchange Y, post the X sends,
then make one kernel call per region group, receiving X before the group
that first reads the X halos.  The staged schedule has one group, the whole
tile, after the X receive.  The overlapped schedule runs the bulk (full
height, all but a max_hop-wide frame at each X edge) while the X sends are in
flight, receives X and runs both frames in one call; when X wraps there is
nothing in flight to overlap, and it steps as the staged schedule does.
Each worker fixes its groups and builds its native.Plan when it is built, so
every call passes prebuilt kernel arguments; the kernel also returns the
step's count of negative populations.
"""

import contextlib
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import native
from .errors import (ConfigurationError, DeadlockError, PeerAbortedError,
                     ProtocolError)
from .geometry import LatticeGeometry, allocate_field
# The step calls only propagate_collide_fused, which also counts the
# negative values it writes.  propagate, collide, bc and count_negative stay
# imported because the benchmark's span tracer (perfbench/spans.py) wraps
# all five kernel names in this module's namespace; for the same reason the
# step calls the kernel through this module-level name.
from .kernels import (WALL_ROWS, bc, collide, count_negative,  # noqa: F401
                      propagate, propagate_collide_fused, wall_rows)
from .velocity_set import VelocitySet

DEFAULT_HALO = 3
_POLL = 0.05


def bindable_cpus():
    """The CPUs the calling thread may run on, sorted; empty where the
    platform cannot bind a thread to a CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def bind_thread(cpus, k):
    """Bind the calling thread to CPU cpus[k mod len(cpus)], as an MPI
    launcher binds ranks to cores: unbound, the scheduler can keep two busy
    threads on one core for a whole job while another idles.  With at most
    one CPU in cpus, or when the kernel refuses (OSError), the thread stays
    as it is."""
    if len(cpus) > 1:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})


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
    The indices are flat (C-order) indices of the (Q, NX, NY) populations,
    in payload order."""

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
                 walls=True, halo=DEFAULT_HALO, debug_poison=False):
        self.tile = tile
        self.vs = vs
        self.params = params
        self.fabric = fabric
        self.debug_poison = debug_poison
        self.geom = LatticeGeometry(tile.Lx, tile.Ly, halo, halo, vs.Q)
        self.prv, self.nxt = allocate_field(self.geom, vs)
        self.plans = face_plans(vs, halo)
        self.halo = halo
        # walls bound the Y chain's ends; a Y ring has none
        nb = tile.neighbors
        self.wall_rows = wall_rows(self.geom, params,
                                   walls and nb["down"] is None,
                                   walls and nb["up"] is None)
        # an axis wraps when the rank is its own neighbour on both sides
        self.wrap = tuple(nb[a] == nb[b] == tile.rank
                          for a, b in (("left", "right"), ("down", "up")))
        self.faces = self._face_table()
        self.bulk, self.frames = self._regions()
        # (receive X first, metric, region) per kernel call.  Only an X
        # exchange with another rank has anything to overlap: the bulk runs
        # while the X faces are in flight, the frames once they are in.
        overlap = schedule == "overlapped" and not self.wrap[0]
        self.groups = (((False, "t_bulk", self.bulk),
                        (True, "t_border", self.frames)) if overlap
                       else ((True, "t_bulk", None),))
        self.plan = native.Plan(self.prv, self.nxt, params, vs,
                                self.wall_rows, self.wrap)
        self.metrics = []

    # -- halo exchange -----------------------------------------------------

    def _face_table(self):
        """Build the four faces, Y before X; reject tiles too thin to
        exchange or to hold their wall rows.  Y faces span the physical
        columns; X faces span the rows the kernel reads: the physical rows
        when Y wraps, up to the outermost physical row at a wall, else the
        padded height.  A wrapped axis's faces are never exchanged."""
        g, t = self.geom, self.tile
        if self.wall_rows and g.Ly < WALL_ROWS:
            raise ConfigurationError(
                f"rank {t.rank}: tile Y extent {g.Ly} is narrower than the "
                f"{WALL_ROWS} wall rows")
        strides = (g.NX * g.NY, g.NY, 1)   # (l, x, y)
        lo, hi = g.pull_ranges(self.wall_rows, self.wrap)[1]
        spans = (np.arange(lo, hi + 1), np.arange(g.Hx, g.Hx + g.Lx))
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
        f.pops.reshape(-1)[face.halo_index] = payload

    # perfbench's span tracer wraps these four names; send and recv look
    # them up on the worker at call time so the wrappers see every call.
    def pack_x(self, f, sign):
        return f.pops.take(self.faces[(0, sign)].send_index)

    def unpack_x(self, f, sign, payload):
        self._unpack(f, 0, sign, payload)

    def pack_y(self, f, sign):
        return f.pops.take(self.faces[(1, sign)].send_index)

    def unpack_y(self, f, sign, payload):
        self._unpack(f, 1, sign, payload)

    def send(self, f, step, axis):
        """Pack and post this rank's faces along axis, unless it wraps."""
        pack = self.pack_y if axis else self.pack_x
        for face in self.faces.values():
            if (face.axis == axis and face.dst is not None
                    and not self.wrap[axis]):
                self.fabric.send(self.tile.rank, face.dst, face.tag, step,
                                 pack(f, face.sign))

    def recv(self, f, step, axis):
        """Receive and unpack this rank's halos along axis, unless it
        wraps."""
        unpack = self.unpack_y if axis else self.unpack_x
        for face in self.faces.values():
            if (face.axis == axis and face.src is not None
                    and not self.wrap[axis]):
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
        prv, nxt = self.prv, self.nxt
        if self.debug_poison:
            self._poison_halos(prv)
        t0 = time.perf_counter()
        self.exchange(prv, step_no, 1)
        t1 = time.perf_counter()
        t = {"step": step_no, "rank": self.tile.rank, "t_comm_nc": t1 - t0,
             "t_comm_c": 0.0, "t_border": 0.0, "negatives": 0}
        self.send(prv, step_no, 0)
        for recv_x, key, region in self.groups:
            if recv_x:
                self.recv(prv, step_no, 0)
            t2 = time.perf_counter()
            t["t_comm_c"] += t2 - t1
            t["negatives"] += propagate_collide_fused(
                prv, nxt, self.params, self.vs, region, self.wall_rows,
                self.plan, self.wrap)
            t1 = time.perf_counter()
            t[key] = t1 - t2
        self.prv, self.nxt = nxt, prv
        self.metrics.append(t)

    def physical_block(self):
        """A view of the current populations over the physical sites."""
        g = self.geom
        return self.prv.pops[:, g.phys_x, g.phys_y]
