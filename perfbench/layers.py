"""Per-layer costs timed by calling each module's public functions directly.

Everything runs on the workload's own rank-0 tile, filled from the
workload's initial state, so the per-site and per-byte costs are those of the
sizes the workload steps.
"""

import os
import statistics
import time

import numpy as np

from thermolb import build_velocity_set
from thermolb.bench import bench_halo_exchange, cost_input_from_tables
from thermolb.init import build_initial_state
from thermolb.io import write_macro_csv, write_pgm
from thermolb.kernels import (WALL_ROWS, apply_shift, bc, collide,
                              equilibrium, moments, propagate,
                              propagate_collide_fused)
from thermolb.planner import (predict_1d, predict_1d_overlap, predict_2d,
                              predict_2d_overlap)
from thermolb.runtime import (Fabric, RankWorker, boundary_bytes_per_site,
                              decompose)

REPS = 5


def median_time(fn, reps=REPS):
    """Median seconds of reps calls after one untimed warm-up call."""
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tile_worker(cfg):
    """Rank 0's worker, its buffer filled from the initial state with
    periodically wrapped halos."""
    vs = build_velocity_set(cfg.model)
    f0 = build_initial_state(cfg.init, cfg.Lx, cfg.Ly, vs, **cfg.init_kwargs)
    tile = decompose(cfg.Lx, cfg.Ly, cfg.Np, cfg.tiling,
                     periodic_y=cfg.periodic_y)[0]
    w = RankWorker(tile, vs, cfg.params, Fabric(cfg.Np),
                   schedule=cfg.schedule, walls=cfg.walls, halo=cfg.halo)
    block = f0[:, tile.x0:tile.x0 + tile.Lx, tile.y0:tile.y0 + tile.Ly]
    h = cfg.halo
    w.prv.pops[...] = np.pad(block, ((0, 0), (h, h), (h, h)), mode="wrap")
    return w


def frame_regions(geom):
    """The bulk and the 3-wide border frame the overlapped schedule uses."""
    h = WALL_ROWS
    x0, x1 = geom.Hx, geom.Hx + geom.Lx
    y0, y1 = geom.Hy, geom.Hy + geom.Ly
    mid_x, mid_y = slice(x0 + h, x1 - h), slice(y0 + h, y1 - h)
    border = [(slice(x0, x0 + h), mid_y), (slice(x1 - h, x1), mid_y),
              (slice(x0, x1), slice(y0, y0 + h)),
              (slice(x0, x1), slice(y1 - h, y1))]
    return (mid_x, mid_y), border


def _sites(region):
    xs, ys = region
    return (xs.stop - xs.start) * (ys.stop - ys.start)


def kernel_costs(cfg):
    """ns per site of each kernel entry point on the workload's tile."""
    w = tile_worker(cfg)
    vs, params, g = w.vs, cfg.params, w.geom
    prv, nxt = w.prv, w.nxt
    phys = (g.phys_x, g.phys_y)
    n = g.Lx * g.Ly
    block = prv.pops[:, phys[0], phys[1]]
    rho, ux, uy, T = moments(block, vs)
    ub, vb, Tb = apply_shift(ux, uy, T, params)
    bulk, border = frame_regions(g)
    ns = {}
    ns["propagate"] = median_time(lambda: propagate(prv, nxt, vs)) / n
    ns["moments"] = median_time(lambda: moments(block, vs)) / n
    ns["equilibrium"] = median_time(lambda: equilibrium(
        rho, ub, vb, Tb, vs, order=params.eq_order, check=False)) / n
    ns["collide"] = median_time(lambda: collide(block, params, vs)) / n
    ns["fused"] = median_time(lambda: propagate_collide_fused(
        prv, nxt, params, vs, bulk)) / _sites(bulk)

    def frame():
        for region in border:
            propagate_collide_fused(prv, nxt, params, vs, region)

    ns["fused_border"] = median_time(frame) / sum(map(_sites, border))
    propagate(prv, nxt, vs)
    ns["bc"] = median_time(lambda: bc(nxt, params, vs, top=True,
                                      bottom=True)) / (2 * WALL_ROWS * g.Lx)
    return {k: v * 1e9 for k, v in ns.items()}


def pack_costs(cfg):
    """ns per byte of RankWorker.pack_*/unpack_* on the workload's tile."""
    w = tile_worker(cfg)
    f = w.prv
    out = {}
    for axis in ("x", "y"):
        pack, unpack = getattr(w, f"pack_{axis}"), getattr(w, f"unpack_{axis}")
        payloads = {s: pack(f, s).copy() for s in (1, -1)}
        nbytes = sum(p.nbytes for p in payloads.values())
        out[f"pack_{axis}"] = median_time(
            lambda: [pack(f, s) for s in (1, -1)]) / nbytes * 1e9
        out[f"unpack_{axis}"] = median_time(
            lambda: [unpack(f, s, payloads[s]) for s in (1, -1)]) / nbytes * 1e9
    return out


def exchange_costs(cfg):
    """bench_halo_exchange at the tile's edges: X faces span the tile's Ly,
    Y faces its Lx.  Returns ({axis: GB/s}, bandwidth tables)."""
    tile = decompose(cfg.Lx, cfg.Ly, cfg.Np, cfg.tiling,
                     periodic_y=cfg.periodic_y)[0]
    results, tables = bench_halo_exchange(sorted({tile.Lx, tile.Ly}),
                                          model=cfg.model)
    bw = {}
    for r in results:
        if r.name == "halo_contiguous" and r.parameter["edge"] == tile.Ly:
            bw["x"] = r.metric / 1e9
        if r.name == "halo_non_contiguous" and r.parameter["edge"] == tile.Lx:
            bw["y"] = r.metric / 1e9
    return bw, tables


def io_costs(macro, workdir):
    """write_macro_csv ns/site, write_pgm ms and the bytes both wrote."""
    csv_path = os.path.join(workdir, "layer_macro.csv")
    pgm_path = os.path.join(workdir, "layer_T.pgm")
    sites = macro.rho.size
    csv_s = median_time(lambda: write_macro_csv(csv_path, macro), reps=3)
    pgm_s = median_time(lambda: write_pgm(pgm_path, macro.T))
    written = os.path.getsize(csv_path) + os.path.getsize(pgm_path)
    os.remove(csv_path)
    os.remove(pgm_path)
    return csv_s / sites * 1e9, pgm_s * 1e3, written


def init_cost_ms(cfg):
    vs = build_velocity_set(cfg.model)
    return median_time(lambda: build_initial_state(
        cfg.init, cfg.Lx, cfg.Ly, vs, **cfg.init_kwargs)) * 1e3


def bulk_sites(cfg):
    """Sites the t_bulk phase covers on one rank."""
    tile = decompose(cfg.Lx, cfg.Ly, cfg.Np, cfg.tiling,
                     periodic_y=cfg.periodic_y)[0]
    if cfg.schedule == "staged":
        return tile.Lx * tile.Ly
    h = WALL_ROWS
    return (tile.Lx - 2 * h) * (tile.Ly - 2 * h)


def planner_prediction(cfg, beta, tables):
    """The planner's T/step for the workload's tiling, from measured inputs."""
    vs = build_velocity_set(cfg.model)
    inp = cost_input_from_tables(tables, cfg.Lx, cfg.Ly, cfg.Np, beta,
                                 S=boundary_bytes_per_site(vs, cfg.halo))
    overlapped = cfg.schedule == "overlapped"
    if cfg.tiling == "1d":
        return (predict_1d_overlap if overlapped else predict_1d)(inp)
    nx, ny = cfg.tiling
    if overlapped and nx == ny and cfg.Lx == cfg.Ly:
        return predict_2d_overlap(inp)
    return predict_2d(inp, grid=(nx, ny))
