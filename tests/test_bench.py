import numpy as np
import pytest

from thermolb.bench import (BenchResult, bench_halo_exchange, bench_layout,
                            bench_misalignment, cost_input_from_tables)
from thermolb.errors import ContractViolation
from thermolb.planner import BandwidthTable


def test_result_statistics():
    r = BenchResult("x", None, 5, [3.0, 1.0, 2.0, 5.0, 4.0], 0.0, "bytes/s")
    assert r.median == 3.0
    assert r.min == 1.0
    assert r.max == 5.0


@pytest.mark.parametrize("kernel", ["propagate", "collide"])
@pytest.mark.parametrize("layout", ["soa", "aos"])
def test_layout_bench_reports_rate(kernel, layout):
    r = bench_layout(12, 12, kernel=kernel, layout=layout, model="D2Q9")
    assert r.repetitions >= 5
    assert len(r.times) == r.repetitions
    assert r.metric > 0 and r.metric_name == "sites/s"
    assert all(t > 0 for t in r.times)


def test_layout_bench_rejects_unknown_kernel():
    with pytest.raises(ContractViolation):
        bench_layout(8, 8, kernel="stream")


def test_misalignment_modes():
    for mode in ("mraw", "armw"):
        r = bench_misalignment(1 << 16, offset=7, mode=mode)
        assert r.metric > 0 and r.metric_name == "bytes/s"
        assert r.parameter == {"bytes": 1 << 16, "offset": 7}
    with pytest.raises(ContractViolation):
        bench_misalignment(1024, offset=4096)
    with pytest.raises(ContractViolation):
        bench_misalignment(1024, offset=0, mode="rw")


def test_misalignment_zero_offset_counts_full_buffer():
    r = bench_misalignment(1 << 15, offset=0)
    # metric = 2 * bytes / median time
    assert r.metric == pytest.approx(2 * (1 << 15) / r.median, rel=1e-12)


def test_halo_exchange_tables_feed_planner():
    results, tables = bench_halo_exchange([8, 16], model="D2Q9", reps=5,
                                          inner=2)
    assert len(results) == 4                     # 2 directions x 2 edges
    for kind in ("contiguous", "non_contiguous"):
        assert len(tables[kind]) == 2
        for msg_bytes, bw in tables[kind]:
            assert msg_bytes > 0 and bw > 0
    # message sizes grow with the edge length
    assert tables["contiguous"][1][0] > tables["contiguous"][0][0]

    inp = cost_input_from_tables(tables, Lx=64, Ly=64, Np=4, beta=1e-8)
    assert isinstance(inp.Bx, BandwidthTable)
    assert inp.S == 208
    assert inp.Bx.at(tables["contiguous"][0][0]) == pytest.approx(
        tables["contiguous"][0][1])


def test_halo_exchange_message_bytes_match_plan(d2q37):
    # per-face payload: 26 populations x 8 bytes x edge sites (x direction
    # counts the full halo-padded column height)
    _, tables = bench_halo_exchange([8], model="D2Q37", reps=5, inner=1)
    assert tables["contiguous"][0][0] == 26 * 8 * (8 + 6)
    assert tables["non_contiguous"][0][0] == 26 * 8 * 8
