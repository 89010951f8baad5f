"""The benchmark's workloads, the job each one runs, and their correctness gates.

A job is one closed-loop call into thermolb's public API: `sim.run` for the
Rayleigh-Taylor workloads, `cli.main(["simulate", ...])` for the snapshot
workload.  The seed reaches the program only through the initial state.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np
import yaml

from thermolb import PhysicsParams, SimConfig, build_velocity_set, cli, sim
from thermolb.init import build_initial_state

# Untimed prefix compared bit for bit against the reference decomposition.
GATE_STEPS = 3
# Mass and momentum must hold to this share of the total mass.
CONSERVATION_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    lx: int
    ly: int
    ranks: int
    tiling: object             # "1d" or (nx, ny)
    schedule: str
    steps: int                 # steps per job
    init: str
    walls: bool
    tau: float
    gy: float
    twall_top: float = 1.0
    twall_bot: float = 1.0
    snapshot_every: int = 0
    via_cli: bool = False

    def init_kwargs(self, seed):
        """The only place the seed enters: a property of the initial state."""
        rng = np.random.default_rng(seed)
        if self.init == "rayleigh-taylor":
            return {"perturbation": 0.01 + 0.02 * float(rng.random())}
        return {"u0": 0.005 + 0.01 * float(rng.random())}

    def config(self, seed, **changes):
        cfg = SimConfig(
            Lx=self.lx, Ly=self.ly, model=self.model, tiling=self.tiling,
            Np=self.ranks, schedule=self.schedule, steps=self.steps,
            params=PhysicsParams(tau=self.tau, gy=self.gy,
                                 Twall_top=self.twall_top,
                                 Twall_bot=self.twall_bot),
            walls=self.walls, periodic_y=not self.walls, init=self.init,
            init_kwargs=self.init_kwargs(seed),
            snapshot_every=self.snapshot_every)
        return dataclasses.replace(cfg, **changes)

    def reference_config(self, seed, steps):
        """Np=1 staged; the workload that is itself Np=1 staged is compared
        with Np=2 1d overlapped instead."""
        if self.ranks == 1 and self.schedule == "staged":
            return self.config(seed, steps=steps, Np=2, tiling="1d",
                               schedule="overlapped")
        return self.config(seed, steps=steps, Np=1, tiling="1d",
                           schedule="staged")

    def cli_argv(self, seed, outdir, steps):
        cfg_path = os.path.join(outdir, "run.yaml")
        with open(cfg_path, "w") as fh:
            yaml.safe_dump({"init_kwargs": self.init_kwargs(seed)}, fh)
        tiling = "1d" if self.tiling == "1d" else "{}x{}".format(*self.tiling)
        return ["simulate", "--config", cfg_path,
                "--lx", str(self.lx), "--ly", str(self.ly),
                "--model", self.model, "--np", str(self.ranks),
                "--tiling", tiling, "--schedule", self.schedule,
                "--steps", str(steps), "--tau", repr(self.tau),
                "--gx", "0.0", "--gy", repr(self.gy),
                "--twall-top", repr(self.twall_top),
                "--twall-bot", repr(self.twall_bot),
                "--init", self.init,
                "--walls", "true" if self.walls else "false",
                "--snapshot-every", str(self.snapshot_every),
                "--outdir", outdir]


_RT = dict(model="D2Q37", init="rayleigh-taylor", walls=True, tau=0.8,
           gy=-1e-5, twall_top=0.628, twall_bot=0.768)

WORKLOADS = {w.name: w for w in (
    Workload("rt37-bulk", lx=128, ly=256, ranks=1, tiling="1d",
             schedule="staged", steps=10, **_RT),
    Workload("rt37-halo", lx=64, ly=64, ranks=2, tiling=(1, 2),
             schedule="overlapped", steps=20, **_RT),
    Workload("tg9-snap", model="D2Q9", lx=256, ly=256, ranks=2, tiling="1d",
             schedule="staged", steps=30, init="taylor-green", walls=False,
             tau=0.8, gy=0.0, snapshot_every=10, via_cli=True),
)}


@dataclass
class Job:
    cfg: SimConfig
    result: sim.RunResult
    job_s: float               # the whole call, output writing included
    setup_s: float             # run() elapsed minus RunResult.wall_seconds
    outdir: str | None = None  # what the CLI wrote, for the snapshot workload


def run_job(wl, seed, workdir, steps=None):
    """One job of the workload, through the public entry point it names."""
    steps = wl.steps if steps is None else steps
    if not wl.via_cli:
        cfg = wl.config(seed, steps=steps)
        t0 = time.perf_counter()
        result = sim.run(cfg)
        job_s = time.perf_counter() - t0
        return Job(cfg, result, job_s, job_s - result.wall_seconds)

    outdir = tempfile.mkdtemp(prefix="job-", dir=workdir)
    argv = wl.cli_argv(seed, outdir, steps)
    seen = {}
    real_run = cli.run

    def observed_run(cfg):
        t0 = time.perf_counter()
        result = real_run(cfg)
        seen.update(cfg=cfg, result=result, run_s=time.perf_counter() - t0)
        return result

    cli.run = observed_run
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            job_s = time.perf_counter() - t0
    finally:
        cli.run = real_run
    if code != 0 or "result" not in seen:
        raise RuntimeError(f"thermolb simulate exited with code {code}")
    result = seen["result"]
    return Job(seen["cfg"], result, job_s, seen["run_s"] - result.wall_seconds,
               outdir)


def state_sha256(populations):
    return hashlib.sha256(np.ascontiguousarray(populations).tobytes()).hexdigest()


def state_problems(populations):
    """Final state must be finite with rho > 0 everywhere."""
    problems = []
    if not np.all(np.isfinite(populations)):
        problems.append("non-finite populations in the final state")
    if not np.all(populations.sum(axis=0) > 0.0):
        problems.append("non-positive density in the final state")
    return problems


def conservation_problems(f0, f1, vs):
    """Total mass and momentum of f1 must match f0 to CONSERVATION_TOL."""
    cx = vs.c[:, 0].astype(float)[:, None, None]
    cy = vs.c[:, 1].astype(float)[:, None, None]
    mass = f0.sum()
    problems = []
    for label, a, b in (("mass", f0.sum(), f1.sum()),
                        ("x momentum", (cx * f0).sum(), (cx * f1).sum()),
                        ("y momentum", (cy * f0).sum(), (cy * f1).sum())):
        if not abs(b - a) <= CONSERVATION_TOL * mass:
            problems.append(f"{label} drifted by {abs(b - a) / mass:.3e} of the mass")
    return problems


def csv_problems(path, macro):
    """The macro CSV must parse back to the in-memory fields, bit for bit."""
    fields = ("rho", "ux", "uy", "T")
    Lx, Ly = macro.rho.shape
    got = {f: np.empty((Lx, Ly)) for f in fields}
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            x, y = int(row[0]), int(row[1])
            for f, text in zip(fields, row[2:]):
                got[f][x, y] = float(text)
            rows += 1
    if rows != Lx * Ly:
        return [f"{path}: {rows} rows for {Lx * Ly} sites"]
    return [f"{path}: {f} differs from RunResult.macro"
            for f in fields if not np.array_equal(got[f], getattr(macro, f))]


def job_problems(wl, seed, job):
    """Checks every timed job must pass before its timing counts."""
    problems = state_problems(job.result.populations)
    if wl.via_cli and not problems:
        vs = build_velocity_set(wl.model)
        f0 = build_initial_state(wl.init, wl.lx, wl.ly, vs,
                                 **wl.init_kwargs(seed))
        problems += conservation_problems(f0, job.result.populations, vs)
        problems += csv_problems(os.path.join(job.outdir, "macro_final.csv"),
                                 job.result.macro)
    return problems


def prefix_problems(wl, seed, workdir):
    """Run an untimed prefix and compare it bit for bit with the reference."""
    job = run_job(wl, seed, workdir, steps=GATE_STEPS)
    problems = state_problems(job.result.populations)
    if job.cfg != wl.config(seed, steps=GATE_STEPS):
        problems.append("the job ran a different configuration than the "
                        "workload defines")
    ref = sim.run(wl.reference_config(seed, GATE_STEPS))
    if not np.array_equal(job.result.populations, ref.populations):
        problems.append(f"{GATE_STEPS}-step prefix is not bit-identical to "
                        "the reference decomposition")
    return problems

