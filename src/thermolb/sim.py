"""Run orchestration: spawn rank threads, collect metrics, gather the state."""

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, PeerAbortedError, ThermoLBError
from .geometry import MacroFields
from .init import build_initial_state
from .kernels import PhysicsParams, moments
from .runtime import DEFAULT_HALO, Fabric, RankWorker, decompose
from .velocity_set import build_velocity_set


@dataclass
class SimConfig:
    """Everything one run needs; mirrors the structured-text config keys."""

    Lx: int
    Ly: int
    model: str = "D2Q37"
    tiling: "str | tuple" = "1d"     # "1d" or (nx, ny)
    Np: int = 1
    schedule: str = "overlapped"     # "staged" | "overlapped"
    steps: int = 0
    params: PhysicsParams = field(
        default_factory=lambda: PhysicsParams(tau=1.0, gx=0.0, gy=-1e-4))
    walls: bool = True
    periodic_y: bool = False
    layout: str = "soa"
    halo: int = DEFAULT_HALO
    init: str = "uniform"
    init_kwargs: dict = field(default_factory=dict)
    snapshot_every: int = 0
    debug_poison: bool = False
    recv_timeout: float = 60.0

    def __post_init__(self):
        if self.Np < 1:
            raise ConfigurationError(f"Np must be at least 1, got {self.Np}")
        if self.steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {self.steps}")
        if self.snapshot_every < 0:
            raise ConfigurationError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if self.tiling != "1d" and not (
                isinstance(self.tiling, tuple) and len(self.tiling) == 2
                and all(isinstance(n, int) and n > 0 for n in self.tiling)):
            raise ConfigurationError(
                f"tiling must be '1d' or a tuple of two positive ints, "
                f"got {self.tiling!r}")
        if self.schedule not in ("staged", "overlapped"):
            raise ConfigurationError(f"unknown schedule {self.schedule!r}")
        if self.walls and self.periodic_y:
            raise ConfigurationError("walls and periodic_y are mutually exclusive")


@dataclass
class RunResult:
    populations: np.ndarray      # (Q, Lx, Ly) final state
    macro: MacroFields
    metrics: list                # rows: dict per (step, rank)
    mlups: float
    wall_seconds: float
    snapshots: list              # (step, MacroFields)


def _macro_of(f, vs):
    rho, ux, uy, T = moments(f, vs)
    return MacroFields(rho, ux, uy, T)


def run(cfg: SimConfig) -> RunResult:
    """Execute cfg.steps time steps on cfg.Np simulated ranks."""
    vs = build_velocity_set(cfg.model)
    f0 = build_initial_state(cfg.init, cfg.Lx, cfg.Ly, vs, **cfg.init_kwargs)
    tiles = decompose(cfg.Lx, cfg.Ly, cfg.Np, cfg.tiling,
                      periodic_y=cfg.periodic_y)
    fabric = Fabric(cfg.Np, timeout=cfg.recv_timeout)
    workers = []
    for tile in tiles:
        w = RankWorker(tile, vs, cfg.params, fabric, schedule=cfg.schedule,
                       walls=cfg.walls, layout=cfg.layout, halo=cfg.halo,
                       debug_poison=cfg.debug_poison)
        w.prv.pops[:, w.geom.phys_x, w.geom.phys_y] = \
            f0[:, tile.x0:tile.x0 + tile.Lx, tile.y0:tile.y0 + tile.Ly]
        workers.append(w)

    def worker_loop(w):
        try:
            for s in range(cfg.steps):
                if fabric.abort.is_set():
                    return
                w.step(s)
                if cfg.debug_poison and not np.all(
                        np.isfinite(w.physical_block())):
                    raise ThermoLBError(
                        f"rank {w.tile.rank}: NaN reached physical cells "
                        f"at step {s}")
                if cfg.snapshot_every and (s + 1) % cfg.snapshot_every == 0:
                    w.snapshots.append((s + 1, w.physical_block()))
        except PeerAbortedError:  # another rank's failure, already recorded
            return
        except Exception as exc:  # propagate to the coordinator
            fabric.fail(w.tile.rank, exc)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=worker_loop, args=(w,), daemon=True)
               for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0

    if fabric.failures:
        rank, exc = fabric.failures[0]
        raise ThermoLBError(
            f"rank {rank} failed: {exc!r} "
            f"({len(fabric.failures)} rank failure(s) total)") from exc

    final = np.empty_like(f0)
    for w in workers:
        t = w.tile
        final[:, t.x0:t.x0 + t.Lx, t.y0:t.y0 + t.Ly] = w.physical_block()

    metrics = []
    for w in workers:
        for s, row in enumerate(w.metrics):
            metrics.append({"step": s, "rank": w.tile.rank, **row})

    snapshots = {}
    for w in workers:
        for s, block in w.snapshots:
            snapshots.setdefault(s, np.empty_like(f0))
            t = w.tile
            snapshots[s][:, t.x0:t.x0 + t.Lx, t.y0:t.y0 + t.Ly] = block
    snap_list = [(s, _macro_of(snapshots[s], vs)) for s in sorted(snapshots)]

    mlups = (cfg.Lx * cfg.Ly * cfg.steps / (wall * 1e6)) if cfg.steps else 0.0
    return RunResult(final, _macro_of(final, vs), metrics, mlups, wall,
                     snap_list)
