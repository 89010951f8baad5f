"""Run every workload over seeds and report each metric and its spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads rt37-halo] \
        [--seconds 20] [--trace 0] [--baseline perfbench/baseline.json]

`--seeds 1` runs each workload once.  For every workload and metric it
prints the median with its unit, the share of jobs that failed, and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound in BENCHMARK.json.
With --baseline it stores, under "end_to_end" or "per_layer" in that
file, the medians, the machine facts and each seed's final-state sha256.
run.py compares its final state with the sha256 stored there.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json")
                         .read_text())
    return line, details, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline")
    args = ap.parse_args(argv)

    group = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[group]}
    units = {m["name"]: m["unit"] for m in spec[group]}
    report = {"run_seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            line, details, wall = one_run(wl, seed, args.seconds, args.trace)
            runs.append((seed, line, details, wall))
            print(f"{wl} seed={seed} wall={wall:.1f}s correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']}",
                  flush=True)
        summary = {}
        for name in bounds:
            values = [r[1]["metrics"][name]["value"] for r in runs]
            if len(values) < 3:
                summary[name] = {"median": statistics.median(values),
                                 "values": values}
                print(f"  {name:34} median {summary[name]['median']:.6g} "
                      f"{units[name]}")
                continue
            rel, med = spread(values)
            summary[name] = {"median": med, "iqr_over_median": rel,
                             "bound": bounds[name], "values": values}
            flag = "" if bounds[name] is None or rel < bounds[name] / 3 \
                else "  <-- spread above a third of the bound"
            print(f"  {name:34} median {med:.6g} {units[name]}  "
                  f"iqr/median {rel:.4f}  bound {bounds[name]}{flag}")
        attempted = sum(r[1]["attempted"] for r in runs)
        failed = sum(r[1]["failed"] for r in runs)
        print(f"  {'fail_frac':34} {failed / attempted!r} "
              f"({failed} of {attempted} jobs)")
        report["workloads"][wl] = {
            "summary": summary,
            "machine": runs[0][2]["machine"],
            "max_wall_s": max(r[3] for r in runs),
            "final_state_sha256": {str(r[0]): r[2]["final_state_sha256"]
                                   for r in runs},
            "attempted": attempted,
            "failed": failed,
        }
    if args.baseline:
        path = Path(args.baseline)
        baseline = json.loads(path.read_text()) if path.is_file() else {}
        baseline[group] = report
        path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
