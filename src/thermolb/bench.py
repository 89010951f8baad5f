"""Desk-hardware analogs of the communication and layout micro-benchmarks.

Every benchmark validates the measured operation before timing it, and
reports dispersion (min/median/max) over at least 5 repetitions.  Timing uses
a monotonic clock with warm-up iterations discarded.
"""

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .geometry import LatticeGeometry, allocate_field
from .kernels import PhysicsParams, collide, propagate
from .planner import BandwidthTable, CostModelInput
from .runtime import DEFAULT_HALO, Fabric, RankWorker, decompose
from .velocity_set import build_velocity_set

MIN_REPS = 5


@dataclass
class BenchResult:
    name: str
    parameter: object
    repetitions: int
    times: list                  # seconds, one per repetition
    metric: float                # bytes/s or sites/s
    metric_name: str

    @property
    def median(self):
        return statistics.median(self.times)

    @property
    def min(self):
        return min(self.times)

    @property
    def max(self):
        return max(self.times)


def _timed(fn, reps, warmup=3):
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _random_field(geom, vs, seed=0):
    prv, nxt = allocate_field(geom, vs)
    rng = np.random.default_rng(seed)
    base = 0.5 + rng.random((vs.Q, geom.NX, geom.NY))
    prv.pops[...] = base
    return prv, nxt


def bench_layout(Lx, Ly, kernel="propagate", layout="soa", model="D2Q37",
                 reps=MIN_REPS, seed=0):
    """Time one kernel over the full lattice in the given layout.

    The run is gated on producing bit-identical output to the SoA reference,
    so only the memory traffic pattern differs between layouts.
    """
    if kernel not in ("propagate", "collide"):
        raise ContractViolation(f"unknown kernel {kernel!r}")
    vs = build_velocity_set(model)
    params = PhysicsParams(tau=1.0)
    geoms = {lay: LatticeGeometry(Lx, Ly, DEFAULT_HALO, DEFAULT_HALO, vs.Q, lay)
             for lay in ("soa", layout)}
    fields = {lay: _random_field(geoms[lay], vs, seed) for lay in geoms}

    def run_once(lay):
        prv, nxt = fields[lay]
        g = geoms[lay]
        if kernel == "propagate":
            propagate(prv, nxt, vs)
            return nxt.pops[:, g.phys_x, g.phys_y]
        block = prv.pops[:, g.phys_x, g.phys_y]
        return collide(block, params, vs)

    ref = np.asarray(run_once("soa"))
    out = np.asarray(run_once(layout))
    if not np.array_equal(ref, out):
        raise ContractViolation(f"layout {layout} changed {kernel} output")

    times = _timed(lambda: run_once(layout), reps)
    sites_per_s = Lx * Ly / statistics.median(times)
    return BenchResult(f"{kernel}_{layout}", {"size": (Lx, Ly)},
                       reps, times, sites_per_s, "sites/s")


def bench_misalignment(buffer_bytes, offset, mode="mraw", reps=MIN_REPS):
    """Streaming copy with a read-side (mraw) or write-side (armw) offset."""
    if mode not in ("mraw", "armw"):
        raise ContractViolation(f"unknown mode {mode!r}")
    if offset >= buffer_bytes:
        raise ContractViolation("offset must be smaller than the buffer")
    n = buffer_bytes - offset
    src = np.arange(buffer_bytes, dtype=np.uint8)
    dst = np.zeros(buffer_bytes, dtype=np.uint8)

    def copy():
        if mode == "mraw":
            dst[:n] = src[offset:offset + n]
        else:
            dst[offset:offset + n] = src[:n]

    copy()
    expect = src[offset:offset + n] if mode == "mraw" else src[:n]
    got = dst[:n] if mode == "mraw" else dst[offset:offset + n]
    if not np.array_equal(got, expect):
        raise ContractViolation("copy verification failed")

    times = _timed(copy, reps)
    gbps = 2.0 * n / statistics.median(times)  # read + write traffic
    return BenchResult(f"misalign_{mode}", {"bytes": buffer_bytes,
                                            "offset": offset},
                       reps, times, gbps, "bytes/s")


def _exchange_pair(edge, axis, model, seed=0):
    """Two ranks sharing the faces along one axis; returns (workers, bytes
    per full exchange along it)."""
    vs = build_velocity_set(model)
    params = PhysicsParams(tau=1.0)
    fabric = Fabric(2, timeout=300.0)
    grid = (2, 1) if axis == 0 else (1, 2)
    tiles = decompose(grid[0] * edge, grid[1] * edge, 2, grid, periodic_y=True)
    workers = []
    rng = np.random.default_rng(seed)
    for tile in tiles:
        w = RankWorker(tile, vs, params, fabric, walls=False)
        w.prv.pops[...] = 0.5 + rng.random(w.prv.pops.shape)
        workers.append(w)
    nbytes = sum(face.send_index.size * 8 for w in workers
                 for face in w.faces.values() if face.axis == axis)
    return workers, nbytes


def _exchange(workers, step, axis):
    for w in workers:
        w.send(w.prv, step, axis)
    for w in workers:
        w.recv(w.prv, step, axis)


def _verify_exchange(workers, axis):
    """Rank 0's first low halo slab along axis must hold rank 1's last
    physical slab, over the span the face covers: the full padded height
    for X, the physical columns for Y."""
    _exchange(workers, 10**6, axis)  # out-of-band step tag
    w0, w1 = workers
    g = w0.geom
    ls = w0.plans[(axis, 1)][0]
    first = (g.Hx, g.Hy)[axis]
    last = first + (g.Lx, g.Ly)[axis] - 1

    def slab(w, at):
        index = [g.phys_x, slice(None)]
        index[axis] = at
        return w.prv.pops[(ls, *index)]

    if not np.array_equal(slab(w0, first - 1), slab(w1, last)):
        raise ContractViolation(
            f"{'xy'[axis]} halo exchange verification failed")


def bench_halo_exchange(edges, model="D2Q37", reps=7, inner=4):
    """Round-trip bandwidth of contiguous (X) and non-contiguous (Y) updates.

    Returns (results, tables); tables maps kind -> [(message_bytes, bw)] and
    feeds straight into the planner.
    """
    results = []
    tables = {"contiguous": [], "non_contiguous": []}
    for axis, kind in ((0, "contiguous"), (1, "non_contiguous")):
        for edge in edges:
            workers, nbytes = _exchange_pair(edge, axis, model)
            _verify_exchange(workers, axis)
            counter = [0]

            def one_round():
                for _ in range(inner):
                    counter[0] += 1
                    _exchange(workers, counter[0], axis)

            times = _timed(one_round, reps)
            bw = inner * nbytes / statistics.median(times)
            msg_bytes = nbytes // 4  # one message of the four per exchange
            results.append(BenchResult(
                f"halo_{kind}", {"edge": edge}, reps, times, bw, "bytes/s"))
            tables[kind].append((msg_bytes, bw))
    return results, tables


def cost_input_from_tables(tables, Lx, Ly, Np, beta, S=26 * 8):
    """Planner input using measured bandwidths: X faces are the contiguous
    direction in this storage order, Y faces the non-contiguous one."""
    bx = BandwidthTable(*zip(*tables["contiguous"]))
    by = BandwidthTable(*zip(*tables["non_contiguous"]))
    return CostModelInput(Lx=Lx, Ly=Ly, Np=Np, Bx=bx, By=by, beta=beta, S=S)
