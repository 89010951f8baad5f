"""thermolb's benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload rt37-bulk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; thermolb is imported from ./src.
Workloads (see BENCHMARK.json for why each was chosen): rt37-bulk,
rt37-halo, tg9-snap.  Each is a closed loop: one job at a time, at most two
rank threads.

Every run first gates an untimed prefix of the workload (bit-identical to
the reference decomposition), then runs jobs for --seconds.  A job whose
final state fails its checks counts in `failed` and its timing is dropped.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced jobs and prints the per-layer metrics: span self times from the
traced jobs, plus direct timings of each module's public functions on the
workload's tile.  It writes a Chrome trace and a self-time table to
perfbench/out/.  The last line of standard output is the result as JSON.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
FALLBACK_LLC = 32 << 20

E2E_UNITS = {"mlups": "MLUPS", "job_s": "s", "step_ms_p50": "ms",
             "step_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def import_thermolb():
    """Put ./src first on the path; False when the checkout has no sources."""
    src = ROOT / "src"
    if not (src / "thermolb" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import thermolb
    return Path(thermolb.__file__).resolve().is_relative_to(src)


# -- probes: fresh processes -------------------------------------------------

def llc_bytes():
    """Size of the largest cache level cpu0 reports, from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, 0)
    for idx in sorted(base.glob("index*")):
        try:
            level = int((idx / "level").read_text())
            text = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        best = max(best, (level, size))
    return best[1] or FALLBACK_LLC


def machine_probe(model, stream_bytes):
    """Machine facts, the cold velocity-set build and streaming bandwidth."""
    import numpy
    import scipy
    from thermolb import build_velocity_set
    from thermolb.bench import bench_misalignment

    t0 = time.perf_counter()
    build_velocity_set(model)
    build_ms = (time.perf_counter() - t0) * 1e3
    llc = llc_bytes()
    buf = stream_bytes or 4 * llc
    stream = bench_misalignment(buf, 0, "mraw")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "llc_bytes": llc, "stream_buffer_bytes": buf,
            "stream_bw_gbs": stream.metric / 1e9,
            "velocity_set_build_ms": build_ms}


def setup_probe(wl, seed):
    """run() elapsed minus RunResult.wall_seconds for one job, cold.

    Without snapshots the set-up work does not depend on the step count, so
    the probe takes no steps; with snapshots it runs the whole job, because
    run() gathers the snapshots after the stepping phase."""
    from thermolb import sim
    cfg = wl.config(seed, steps=wl.steps if wl.snapshot_every else 0)
    t0 = time.perf_counter()
    result = sim.run(cfg)
    return {"setup_s": time.perf_counter() - t0 - result.wall_seconds}


def probe(kind, wl, seed, stream_bytes=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", kind,
           "--spec", json.dumps(dataclasses.asdict(wl)), "--seed", str(seed),
           "--stream-bytes", str(stream_bytes)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{kind} probe failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def workload_from_spec(text):
    from workloads import Workload
    spec = json.loads(text)
    if isinstance(spec["tiling"], list):
        spec["tiling"] = tuple(spec["tiling"])
    return Workload(**spec)


# -- the measured run --------------------------------------------------------

@dataclasses.dataclass
class JobTimes:
    mlups: float
    job_s: float
    rows: list          # RunResult.metrics


def step_seconds(rows):
    """Per step: the maximum over ranks of the phase sum."""
    per_step = {}
    for m in rows:
        t = m["t_comm_nc"] + m["t_comm_c"] + m["t_bulk"] + m["t_border"]
        per_step[m["step"]] = max(per_step.get(m["step"], 0.0), t)
    return [per_step[s] for s in sorted(per_step)]


def run_jobs(wl, seed, seconds, workdir, rec):
    """Closed loop of jobs for `seconds`; with a recorder, every other job
    is traced.  Returns (plain, traced, attempted, failed, sha, last)."""
    from spans import traced
    from workloads import job_problems, run_job, state_sha256

    plain, tr = [], []
    attempted = failed = 0
    first_sha, last = None, None
    deadline = time.perf_counter() + seconds
    while True:
        tracing = rec is not None and attempted % 2 == 1
        job = None
        try:
            if tracing:
                with traced(rec), rec.span("job"):
                    job = run_job(wl, seed, workdir)
            else:
                job = run_job(wl, seed, workdir)
            problems = job_problems(wl, seed, job)
            sha = state_sha256(job.result.populations)
            first_sha = first_sha or sha
            if sha != first_sha:
                problems.append("final state differs from the run's first job")
        except Exception as exc:  # a job that raises has failed its gate
            problems = [f"job raised {exc!r}"]
        finally:
            if job is not None and job.outdir:
                shutil.rmtree(job.outdir, ignore_errors=True)
        attempted += 1
        if problems:
            failed += 1
            print(f"job {attempted} failed its gate: {'; '.join(problems)}")
        else:
            times = JobTimes(job.result.mlups, job.job_s, job.result.metrics)
            (tr if tracing else plain).append(times)
            last = job.result
        if time.perf_counter() >= deadline and (rec is None or attempted >= 2):
            return plain, tr, attempted, failed, first_sha, last


def quantile(values, q):
    """statistics.quantiles' q-th percentile (q in 1..99)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 \
        else values[0]


def end_to_end(wl, seed, plain):
    steps = [s for j in plain for s in step_seconds(j.rows)]
    setups = [probe("setup", wl, seed)["setup_s"] for _ in range(SETUP_PROBES)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "mlups": statistics.median(j.mlups for j in plain),
        "job_s": statistics.median(j.job_s for j in plain),
        "step_ms_p50": statistics.median(steps) * 1e3,
        "step_ms_p90": quantile(steps, 90) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024,
    }


def companion_config(cfg):
    """The workload's tile under the overlapped schedule with a Y neighbour:
    it measures a border phase or a Y wait the workload itself lacks."""
    from thermolb.runtime import decompose
    from workloads import GATE_STEPS
    tiles = decompose(cfg.Lx, cfg.Ly, cfg.Np, cfg.tiling,
                      periodic_y=cfg.periodic_y)
    has_y = any(t.neighbors["up"] is not None or t.neighbors["down"] is not None
                for t in tiles)
    if cfg.schedule == "overlapped" and has_y:
        return None
    changes = {"schedule": "overlapped", "steps": 2 * GATE_STEPS}
    if not has_y:
        nx, ny = (cfg.Np, 1) if cfg.tiling == "1d" else cfg.tiling
        changes.update(Ly=2 * cfg.Ly, Np=2 * cfg.Np, tiling=(nx, 2 * ny))
    return dataclasses.replace(cfg, **changes)


def span_stats(rec):
    """Steps per rank, recv wait per axis and sends, from one recorder."""
    steps = sum(1 for s in rec.spans if s[0] == "sim.step")
    wait = {"x": 0, "y": 0}
    sends = sent = 0
    for name, start, end, _, _, detail in rec.spans:
        if name == "runtime.Fabric.recv":
            wait[detail[0]] += end - start
        elif name == "runtime.Fabric.send":
            sends += 1
            sent += detail
    return steps, wait, sends, sent


def per_layer(cfg, machine, plain, tr, rec, workdir, last, tag):
    import layers
    from spans import SpanRecorder, traced
    from thermolb import build_velocity_set, sim

    vs = build_velocity_set(cfg.model)
    m, source = {}, {}
    untraced_mlups = statistics.median(j.mlups for j in plain)
    traced_mlups = statistics.median(j.mlups for j in tr)

    for k, v in layers.kernel_costs(cfg).items():
        m[f"kernels.{k}.ns_per_site"] = v
    m["kernels.bytes_per_site"] = 16 * vs.Q   # computed: read + write Q doubles
    m["machine.stream_bw_gbs"] = machine["stream_bw_gbs"]
    m["kernels.stream_frac"] = (m["kernels.bytes_per_site"] * untraced_mlups
                                * 1e6 / (machine["stream_bw_gbs"] * 1e9))

    for k, v in layers.pack_costs(cfg).items():
        m[f"runtime.{k}.ns_per_byte"] = v
    bw, tables = layers.exchange_costs(cfg)
    m["runtime.exchange_x.bw_gbs"] = bw["x"]
    m["runtime.exchange_y.bw_gbs"] = bw["y"]

    rows = [r for j in plain for r in j.rows]
    phases = {p: [r[f"t_{p}"] for r in rows]
              for p in ("comm_nc", "comm_c", "bulk", "border")}
    steps, wait, sends, sent = span_stats(rec)
    comp_cfg = companion_config(cfg)
    if comp_cfg is not None:
        comp_rec = SpanRecorder()
        with traced(comp_rec):
            comp = sim.run(comp_cfg)
        if cfg.schedule == "staged":
            phases["border"] = [r["t_border"] for r in comp.metrics]
            source["sim.phase.border_ms"] = "companion overlapped run"
        if not any(s[0] == "runtime.Fabric.recv" and s[5][0] == "y"
                   for s in rec.spans):
            c_steps, c_wait, _, _ = span_stats(comp_rec)
            wait["y"] = c_wait["y"] * steps / c_steps
            source["runtime.wait_y_ms"] = "companion run with a Y neighbour"
    for axis in ("x", "y"):
        m[f"runtime.wait_{axis}_ms"] = wait[axis] / steps / 1e6
    m["runtime.msgs_per_step"] = sends * cfg.Np / steps
    m["runtime.bytes_per_step"] = sent * cfg.Np / steps
    for p, values in phases.items():
        m[f"sim.phase.{p}_ms"] = statistics.median(values) * 1e3
    busy = {}
    for r in rows:
        busy[r["rank"]] = busy.get(r["rank"], 0.0) + r["t_bulk"] + r["t_border"]
    m["sim.rank_skew"] = max(busy.values()) / statistics.mean(busy.values())

    m["velocity_set.build_ms"] = machine["velocity_set_build_ms"]
    m["init.build_ms"] = layers.init_cost_ms(cfg)
    csv_ns, pgm_ms, written = layers.io_costs(last.macro, workdir)
    m["io.write_macro_csv.ns_per_site"] = csv_ns
    m["io.write_pgm_ms"] = pgm_ms
    m["io.bytes_written"] = written

    beta = statistics.median(r["t_bulk"] for r in rows) / layers.bulk_sites(cfg)
    step_p50 = statistics.median(s for j in plain for s in step_seconds(j.rows))
    pred = layers.planner_prediction(cfg, beta, tables)
    m["planner.pred_rel_err"] = (pred.T_total - step_p50) / step_p50

    own = rec.self_times()
    rank_self = sum(t for s, t in zip(rec.spans, own) if s[4] != "main")
    traced_steps = sum(r["t_comm_nc"] + r["t_comm_c"] + r["t_bulk"]
                       + r["t_border"] for j in tr for r in j.rows)
    m["trace.accounted_frac"] = rank_self / 1e9 / traced_steps
    m["trace.overhead_frac"] = 1.0 - traced_mlups / untraced_mlups

    OUT.mkdir(exist_ok=True)
    rec.chrome_trace(OUT / f"{tag}.trace.json")
    table = rec.self_time_table(steps / cfg.Np)
    lines = [f"{'thread':12} {'span':32} {'calls':>7} {'self ms':>10} "
             f"{'ms/step':>9}"]
    lines += [f"{th:12} {n:32} {c:7d} {t:10.2f} {p:9.3f}"
              for th, n, c, t, p in table]
    by_layer = defaultdict(lambda: [0.0, 0.0])
    for th, n, _, t, p in table:
        total = by_layer[(th, n.split(".")[0])]
        total[0] += t
        total[1] += p
    lines += ["", f"{'thread':12} {'layer':32} {'':7} {'self ms':>10} "
              f"{'ms/step':>9}"]
    lines += [f"{th:12} {layer:32} {'':7} {t:10.2f} {p:9.3f}"
              for (th, layer), (t, p) in sorted(by_layer.items())]
    (OUT / f"{tag}.selftime.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return m, {"sources": source, "beta_s_per_site": beta,
               "planner_T_step_s": pred.T_total, "untraced_mlups": untraced_mlups,
               "traced_mlups": traced_mlups}


def measure(wl, seed, seconds, trace, stream_bytes=0):
    """One benchmark run; returns (result line, details)."""
    from spans import SpanRecorder
    from workloads import prefix_problems

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        problems = prefix_problems(wl, seed, workdir)
        print(f"gate prefix: {'; '.join(problems) or 'pass'}")
        if problems:
            return {"correct": False, "attempted": 1, "failed": 1,
                    "metrics": {}}, {"gate": problems}
        rec = SpanRecorder() if trace else None
        plain, tr, attempted, failed, sha, last = run_jobs(
            wl, seed, seconds, workdir, rec)
        # Probes run after the timed loop so that their allocations
        # cannot disturb it.
        machine = probe("machine", wl, seed, stream_bytes)
        print("machine " + json.dumps(machine))
        known = baseline_sha(wl.name, seed)
        repeat = "" if known is None else (
            "  (matches baseline.json)" if known == sha
            else "  (differs from baseline.json)")
        print(f"final_state_sha256 {wl.name} seed={seed} {sha}{repeat}")
        print(f"jobs attempted={attempted} failed={failed} "
              f"fail_frac={failed / attempted!r}")
        details = {"workload": wl.name, "seed": seed, "trace": trace,
                   "machine": machine, "final_state_sha256": sha,
                   "baseline_sha256": known,
                   "attempted": attempted, "failed": failed,
                   "jobs": [{"mlups": j.mlups, "job_s": j.job_s}
                            for j in plain]}
        if not plain or (trace and not tr):
            return {"correct": False, "attempted": attempted, "failed": failed,
                    "metrics": {}}, details
        if trace:
            tag = f"{wl.name}-seed{seed}"
            values, extra = per_layer(wl.config(seed), machine, plain, tr,
                                      rec, workdir, last, tag)
            details.update(extra)
            units = layer_units()
        else:
            values = end_to_end(wl, seed, plain)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    details["metrics"] = metrics
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, details


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_units():
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


def baseline_sha(name, seed):
    """The final-state sha256 baseline.json recorded for this workload and
    seed, or None."""
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    runs = json.loads(path.read_text())["end_to_end"]["workloads"]
    return runs.get(name, {}).get("final_state_sha256", {}).get(str(seed))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=benchmark_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("machine", "setup"), help=argparse.SUPPRESS)
    ap.add_argument("--spec", help=argparse.SUPPRESS)
    ap.add_argument("--stream-bytes", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not import_thermolb():
        print(f"perfbench: no thermolb sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.probe:
        wl = workload_from_spec(args.spec)
        out = (machine_probe(wl.model, args.stream_bytes)
               if args.probe == "machine" else setup_probe(wl, args.seed))
        print(json.dumps(out))
        return 0
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    line, details = measure(wl, args.seed, args.seconds, args.trace)
    for name, m in line["metrics"].items():
        suffix = f"  ({details['sources'][name]})" \
            if name in details.get("sources", {}) else ""
        print(f"{name} {m['value']!r} {m['unit']}{suffix}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
