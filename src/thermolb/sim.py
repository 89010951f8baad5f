"""Run orchestration: spawn rank threads, collect metrics, gather the state."""

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, PeerAbortedError, ThermoLBError
from .geometry import MacroFields
from .init import build_initial_state
from .kernels import PhysicsParams, check_density, moments
from .runtime import (DEFAULT_HALO, Fabric, RankWorker, bind_thread,
                      bindable_cpus, decompose)
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
    halo: int = DEFAULT_HALO
    init: str = "uniform"
    init_kwargs: dict = field(default_factory=dict)
    snapshot_every: int = 0
    debug_poison: bool = False

    def __post_init__(self):
        if self.Lx < 1 or self.Ly < 1:
            raise ConfigurationError(
                f"lattice extents must be at least 1, got {self.Lx}x{self.Ly}")
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
        if self.walls == self.periodic_y:
            raise ConfigurationError(
                "exactly one of walls and periodic_y must be set: walls bound "
                "the Y axis, periodic_y wraps it")


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
    fabric = Fabric(cfg.Np)
    workers = []
    for tile in tiles:
        w = RankWorker(tile, vs, cfg.params, fabric, schedule=cfg.schedule,
                       walls=cfg.walls, halo=cfg.halo,
                       debug_poison=cfg.debug_poison)
        w.prv.pops[:, w.geom.phys_x, w.geom.phys_y] = \
            f0[:, tile.x0:tile.x0 + tile.Lx, tile.y0:tile.y0 + tile.Ly]
        workers.append(w)
    del f0  # the tiles hold the initial state now
    # {step: global fields}: each rank writes its tile's rho, u and T at a
    # snapshot step straight into them (moments works site by site, so the
    # bits are those of the global reduction); the last step's snapshot is
    # taken from the final state
    every = cfg.snapshot_every
    snaps = {s: MacroFields(*(np.empty((cfg.Lx, cfg.Ly)) for _ in range(4)))
             for s in range(every, cfg.steps, every)} if every else {}

    # Rank r's thread is bound to CPU r (mod the process's CPUs): unbound,
    # the ranks can share one core and take turns at every step.  One rank
    # is not bound.
    cpus = bindable_cpus() if cfg.Np > 1 else []

    def worker_loop(w):
        t = w.tile
        sites = (slice(t.x0, t.x0 + t.Lx), slice(t.y0, t.y0 + t.Ly))
        bind_thread(cpus, t.rank)
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
                macro = snaps.get(s + 1)
                if macro is not None:
                    # a bad site divides by zero here, and the density
                    # check on the global rho after the join reports it
                    with np.errstate(divide="ignore", invalid="ignore"):
                        parts = moments(w.physical_block(), vs, check=False)
                    for out, part in zip(
                            (macro.rho, macro.ux, macro.uy, macro.T), parts):
                        out[sites] = part
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

    final = np.empty((vs.Q, cfg.Lx, cfg.Ly))
    for w in workers:
        t = w.tile
        final[:, t.x0:t.x0 + t.Lx, t.y0:t.y0 + t.Ly] = w.physical_block()

    metrics = [row for w in workers for row in w.metrics]

    for snap in snaps.values():
        check_density(snap.rho)
    snapshots = list(snaps.items())
    macro = _macro_of(final, vs)
    if every and cfg.steps and cfg.steps % every == 0:
        snapshots.append((cfg.steps, macro))

    mlups = (cfg.Lx * cfg.Ly * cfg.steps / (wall * 1e6)) if cfg.steps else 0.0
    return RunResult(final, macro, metrics, mlups, wall, snapshots)
