"""Smoke tests of the benchmark itself, at tiny lattice sizes.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "rt37-bulk": dict(lx=16, ly=32, steps=2),
    "rt37-halo": dict(lx=16, ly=16, steps=2),
    "tg9-snap": dict(lx=16, ly=16, steps=2, snapshot_every=1),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_reported_with_its_unit(name, trace):
    line, _ = run.measure(tiny(name), seed=3, seconds=0.2, trace=trace,
                          stream_bytes=1 << 20)
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert sorted(line["metrics"]) == sorted(m["name"] for m in group)
    for m in group:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    json.dumps(line)


def test_seed_only_changes_the_initial_state():
    wl = tiny("rt37-bulk")
    a, b = wl.config(1), wl.config(2)
    assert a.init_kwargs != b.init_kwargs
    assert dataclasses.replace(a, init_kwargs={}) == \
        dataclasses.replace(b, init_kwargs={})


def test_corrupted_state_trips_the_gates(tmp_path):
    wl = tiny("tg9-snap")
    job = workloads.run_job(wl, 5, str(tmp_path))
    assert workloads.job_problems(wl, 5, job) == []

    pops = job.result.populations
    nan = pops.copy()
    nan[0, 0, 0] = np.nan
    assert workloads.state_problems(nan)
    empty = pops.copy()
    empty[:, 1, 1] = 0.0
    assert workloads.state_problems(empty)

    job.result.populations = pops.copy()
    job.result.populations[1, 2, 3] *= 1.001
    assert any("mass" in p for p in workloads.job_problems(wl, 5, job))
    job.result.populations = pops
    job.result.macro.T[4, 4] = np.nextafter(job.result.macro.T[4, 4], 1.0)
    assert any("T differs" in p for p in workloads.job_problems(wl, 5, job))


def test_one_ulp_in_the_prefix_trips_the_bitwise_gate(tmp_path, monkeypatch):
    wl = tiny("rt37-halo")
    assert workloads.prefix_problems(wl, 5, str(tmp_path)) == []
    real = workloads.run_job

    def corrupted(*args, **kwargs):
        job = real(*args, **kwargs)
        f = job.result.populations
        f[7, 3, 3] = np.nextafter(f[7, 3, 3], np.inf)
        return job

    monkeypatch.setattr(workloads, "run_job", corrupted)
    assert any("bit-identical" in p
               for p in workloads.prefix_problems(wl, 5, str(tmp_path)))


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rt37-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
