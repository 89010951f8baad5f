"""Desk-hardware analogs of the communication and layout micro-benchmarks.

The layout benchmark times the fused kernel, the call a rank's step makes,
on a tile stored as runs store it, structure-of-arrays (SoA: one contiguous
(Q, NX, NY) array), and on an array-of-structures (AoS) copy that keeps the
Q values of a site together.  This module is the only place that builds
the AoS copy: it measures the alternative that runs do not use.

Every benchmark validates the measured operation before timing it, and
reports dispersion (min/median/max) over at least 5 repetitions.  Timing uses
a monotonic clock with warm-up iterations discarded.
"""

import itertools
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .geometry import (LatticeGeometry, PopulationField, allocate_field,
                       same_bits)
from .kernels import PhysicsParams, propagate_collide_fused
from .planner import DEFAULT_S, BandwidthTable, CostModelInput
from .runtime import DEFAULT_HALO, Fabric, RankWorker, decompose
from .velocity_set import build_velocity_set

MIN_REPS = 5
LAYOUTS = ("soa", "aos")


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


def _timed(fns, reps, warmup=3):
    """Seconds per call of each of fns, reps of each.

    Every repetition calls each function once in turn, so that they are all
    timed in the same machine state.  Returns one list per function.
    """
    for _ in range(warmup):
        for fn in fns:
            fn()
    times = [[] for _ in fns]
    for _ in range(reps):
        for fn, out in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return times


def _random_field(geom, vs, seed=0):
    prv, nxt = allocate_field(geom, vs)
    rng = np.random.default_rng(seed)
    base = 0.5 + rng.random((vs.Q, geom.NX, geom.NY))
    prv.pops[...] = base
    return prv, nxt


def stored_as(field, layout):
    """A copy of field with the same (Q, NX, NY) values, stored in layout.

    "soa" is a contiguous copy of the array.  "aos" is a contiguous
    (NX, NY, Q) array seen through np.moveaxis as a strided (Q, NX, NY)
    view, which the compiled kernel and the numpy path address through its
    strides as they do any other.
    """
    if layout == "soa":
        return PopulationField(field.geom, field.pops.copy())
    if layout == "aos":
        sites = np.ascontiguousarray(np.moveaxis(field.pops, 0, 2))
        return PopulationField(field.geom, np.moveaxis(sites, 2, 0))
    raise ContractViolation(f"unknown layout {layout!r}")


def bench_layout(Lx, Ly, layout="soa", model="D2Q37", reps=MIN_REPS, seed=0):
    """Time the fused kernel over the whole tile in the given layout.

    The run's own SoA field is the reference and the timed buffers are its
    copies in layout (stored_as).  The run is gated on their output being
    bit-identical to the reference's, so only the memory traffic pattern
    differs between layouts.
    """
    vs = build_velocity_set(model)
    params = PhysicsParams(tau=1.0)
    geom = LatticeGeometry(Lx, Ly, DEFAULT_HALO, DEFAULT_HALO, vs.Q)
    ref_prv, ref_nxt = _random_field(geom, vs, seed)
    prv, nxt = stored_as(ref_prv, layout), stored_as(ref_nxt, layout)
    propagate_collide_fused(ref_prv, ref_nxt, params, vs)
    propagate_collide_fused(prv, nxt, params, vs)
    if not same_bits(ref_nxt.pops, nxt.pops):
        raise ContractViolation(f"layout {layout} changed the kernel output")

    [times] = _timed(
        [lambda: propagate_collide_fused(prv, nxt, params, vs)], reps)
    sites_per_s = Lx * Ly / statistics.median(times)
    return BenchResult(f"fused_{layout}", {"size": (Lx, Ly)},
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

    [times] = _timed([copy], reps)
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
    # the X pair's Y neither wraps nor walls: its X faces span the padded Y
    grid = (2, 1) if axis == 0 else (1, 2)
    tiles = decompose(grid[0] * edge, grid[1] * edge, 2, grid,
                      periodic_y=axis == 1)
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


def _exchange_rounds(workers, axis, inner):
    """A call that makes inner exchanges along axis, each with a new step
    tag."""
    tags = itertools.count(1)

    def one_round():
        for _ in range(inner):
            _exchange(workers, next(tags), axis)

    return one_round


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

    if not same_bits(slab(w0, first - 1), slab(w1, last)):
        raise ContractViolation(
            f"{'xy'[axis]} halo exchange verification failed")


def bench_halo_exchange(edges, model="D2Q37", reps=7, inner=4):
    """Round-trip bandwidth of contiguous (X) and non-contiguous (Y) updates.

    For each edge the two kinds are timed in alternation, repetition by
    repetition, so that a drift in machine speed cannot favour either one.
    Returns (results, tables); tables maps kind -> [(message_bytes, bw)] and
    feeds straight into the planner.
    """
    kinds = {0: "contiguous", 1: "non_contiguous"}
    results = {kind: [] for kind in kinds.values()}
    tables = {kind: [] for kind in kinds.values()}
    for edge in edges:
        rounds, sizes = [], []
        for axis in kinds:
            workers, nbytes = _exchange_pair(edge, axis, model)
            _verify_exchange(workers, axis)
            rounds.append(_exchange_rounds(workers, axis, inner))
            sizes.append(nbytes)
        for kind, nbytes, times in zip(kinds.values(), sizes,
                                       _timed(rounds, reps)):
            bw = inner * nbytes / statistics.median(times)
            msg_bytes = nbytes // 4  # one message of the four per exchange
            results[kind].append(BenchResult(
                f"halo_{kind}", {"edge": edge}, reps, times, bw, "bytes/s"))
            tables[kind].append((msg_bytes, bw))
    return [r for kind in kinds.values() for r in results[kind]], tables


def cost_input_from_tables(tables, Lx, Ly, Np, beta, S=DEFAULT_S):
    """Planner input using measured bandwidths: X faces are the contiguous
    direction in this storage order, Y faces the non-contiguous one."""
    bx = BandwidthTable(*zip(*tables["contiguous"]))
    by = BandwidthTable(*zip(*tables["non_contiguous"]))
    return CostModelInput(Lx=Lx, Ly=Ly, Np=Np, Bx=bx, By=by, beta=beta, S=S)
