import csv

import numpy as np
import pytest

from thermolb import cli, native
from thermolb.cli import main
from thermolb.io import (load_config, read_bandwidth_table,
                         write_bandwidth_table)
from thermolb.velocity_set import build_velocity_set


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# --------------------------------------------------------------- simulate --

def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--lx", "16", "--ly", "16", "--np", "2",
               "--tiling", "1d", "--steps", "4", "--tau", "0.9",
               "--gy", "0", "--init", "uniform", "--snapshot-every", "2",
               "--twall-top", "0.6979533220196837",
               "--twall-bot", "0.6979533220196837",
               "--outdir", str(out), "--tdp-watts", "65"])
    assert rc == 0
    for name in ("metrics.csv", "T_final.pgm", "macro_final.csv",
                 "summary.txt", "T_000002.pgm", "macro_000002.csv",
                 "T_000004.pgm"):
        assert (out / name).exists(), name

    rows = read_csv(out / "metrics.csv")
    assert rows[0][:2] == ["step", "rank"]
    assert "[s]" in rows[0][2]
    assert len(rows) == 1 + 4 * 2          # header + steps x ranks

    with open(out / "T_final.pgm", "rb") as fh:
        assert fh.read(2) == b"P5"

    summary = (out / "summary.txt").read_text()
    assert "MLUPS:" in summary
    assert "energy_per_site_uJ:" in summary

    macro = read_csv(out / "macro_final.csv")
    assert macro[0][0].startswith("x")
    assert len(macro) == 1 + 16 * 16


@pytest.mark.parametrize("force_numpy", [False, True])
def test_simulate_summary_names_kernel_path(tmp_path, monkeypatch,
                                            force_numpy):
    if force_numpy:
        monkeypatch.setattr(native, "_lib", None)
    out = tmp_path / "run"
    rc = main(["simulate", "--lx", "8", "--ly", "8", "--steps", "1",
               "--init", "uniform", "--outdir", str(out)])
    assert rc == 0
    want = "numpy" if force_numpy or native.load() is None else "native"
    assert f"kernels: {want}" in (out / "summary.txt").read_text().splitlines()


def test_simulate_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(
        "lx: 8\nly: 8\nsteps: 2\ntau: 0.9\ngy: 0.0\ninit: uniform\n"
        "twall_top: 0.6979533220196837\ntwall_bot: 0.6979533220196837\n")
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfgfile), "--steps", "1",
               "--outdir", str(out)])
    assert rc == 0
    rows = read_csv(out / "metrics.csv")
    assert len(rows) == 2                  # override took effect: 1 step


def test_simulate_rayleigh_taylor_temperature_bounds(tmp_path):
    vs = build_velocity_set("D2Q37")
    T_hot, T_cold = vs.cs2 * 1.1, vs.cs2 * 0.9
    out = tmp_path / "rt"
    rc = main(["simulate", "--lx", "16", "--ly", "32", "--steps", "10",
               "--tau", "0.8", "--gy=-1e-5", "--init", "rayleigh-taylor",
               "--twall-top", str(T_cold), "--twall-bot", str(T_hot),
               "--outdir", str(out)])
    assert rc == 0
    macro = read_csv(out / "macro_final.csv")
    T_col = macro[0].index([h for h in macro[0] if h.startswith("T")][0])
    T = np.array([float(r[T_col]) for r in macro[1:]])
    assert T.min() >= T_cold - 1e-9
    assert T.max() <= T_hot + 1e-9


def test_simulate_missing_extent_is_config_error(tmp_path):
    rc = main(["simulate", "--ly", "8", "--steps", "1",
               "--outdir", str(tmp_path)])
    assert rc == 2


def test_simulate_bad_tiling_is_config_error(tmp_path):
    rc = main(["simulate", "--lx", "10", "--ly", "10", "--np", "3",
               "--tiling", "1d", "--steps", "1", "--outdir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--ly", "8"], "'lx'"),
    (["simulate", "--lx", "8"], "'ly'"),
    (["plan", "--lx", "64"], "'ly'"),
])
def test_missing_extent_names_the_key(tmp_path, capsys, argv, key):
    rc = main(argv + ["--out" if argv[0] == "plan" else "--outdir",
                      str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing required key" in err and key in err


@pytest.mark.parametrize("tiling", ["2x", "x2", "2x2x2", "2by2"])
def test_simulate_malformed_tiling_is_config_error(tmp_path, capsys, tiling):
    rc = main(["simulate", "--lx", "8", "--ly", "8", "--tiling", tiling,
               "--steps", "1", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "tiling must be '1d' or 'NXxNY'" in capsys.readouterr().err


def test_unexpected_error_in_run_is_not_a_config_error(tmp_path, capsys,
                                                       monkeypatch):
    # an internal bug (here a KeyError inside run) exits 3 with its
    # traceback, not 2 as if the user's configuration were at fault
    def broken(cfg):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "run", broken)
    rc = main(["simulate", "--lx", "8", "--ly", "8", "--steps", "1",
               "--outdir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "KeyError: 'internal'" in err
    assert "configuration error" not in err


@pytest.mark.parametrize("command, text, key", [
    ("simulate", "lx: abc\nly: 8\n", "'lx'"),
    ("simulate", "lx: 8\nly: 8\ntau: fast\n", "'tau'"),
    ("simulate", "lx: 8\nly: 8\nwalls: maybe\n", "'walls'"),
    ("plan", "lx: 64\nly: 64\nbeta: small\n", "'beta'"),
    ("plan", "lx: 64\nly: 64\nnp_list: 1,two\n", "'np_list'"),
])
def test_bad_config_value_is_config_error(tmp_path, capsys, command, text,
                                          key):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(text)
    rc = main([command, "--config", str(cfgfile),
               "--out" if command == "plan" else "--outdir",
               str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, walls", [
    ("walls: \"false\"", False), ("walls: false", False), ("walls: no", False),
    ("walls: \"0\"", False), ("walls: \"true\"", True), ("walls: 1", True),
    ("", True)])
def test_config_walls_parsed_like_the_flag(tmp_path, monkeypatch, text,
                                           walls):
    seen = []

    def capture(cfg):            # stop once the SimConfig is built
        seen.append(cfg)
        raise RuntimeError("captured")

    monkeypatch.setattr(cli, "run", capture)
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(f"lx: 8\nly: 8\n{text}\n")
    main(["simulate", "--config", str(cfgfile), "--outdir", str(tmp_path)])
    assert seen[0].walls is walls and seen[0].periodic_y is not walls
    seen.clear()
    flag = "true" if walls else "false"
    main(["simulate", "--config", str(cfgfile), "--walls", flag,
          "--outdir", str(tmp_path)])
    assert seen[0].walls is walls


def test_simulate_large_config_parses_but_is_memory_bound():
    # the big production shape from the docs parses and decomposes fine;
    # actually allocating it needs ~5 GB per buffer, beyond this sandbox
    from thermolb import decompose
    tiles = decompose(1024, 8192, 16, "1d")
    assert tiles[0].Lx == 64 and tiles[0].Ly == 8192


# ------------------------------------------------------------------- plan --

def test_plan_writes_curve(tmp_path):
    out = tmp_path / "plan.csv"
    rc = main(["plan", "--lx", "512", "--ly", "512", "--beta", "1e-8",
               "--bx", "2e9", "--by", "1e9", "--np-list", "1,4",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0][0] == "Np"
    assert {r[1] for r in rows[1:]} == {"1d", "2d", "1d_overlap", "2d_overlap"}
    # Np=4 contributes three 2d rows (1x4, 2x2, 4x1)
    assert sum(1 for r in rows[1:] if r[0] == "4" and r[1] == "2d") == 3


def test_plan_from_bandwidth_table(tmp_path):
    table_path = tmp_path / "bw.csv"
    write_bandwidth_table(table_path, {
        "contiguous": [(1000.0, 2e9), (100000.0, 4e9)],
        "non_contiguous": [(1000.0, 5e8), (100000.0, 1e9)]})
    back = read_bandwidth_table(table_path)
    assert back["contiguous"] == [(1000.0, 2e9), (100000.0, 4e9)]
    out = tmp_path / "plan.csv"
    rc = main(["plan", "--lx", "256", "--ly", "256",
               "--bandwidth-table", str(table_path), "--np-list", "4",
               "--out", str(out)])
    assert rc == 0
    assert len(read_csv(out)) > 1


def test_plan_missing_extent_is_config_error():
    assert main(["plan", "--np-list", "4"]) == 2


# ------------------------------------------------------------------ bench --

def test_bench_layout_cli(tmp_path):
    out = tmp_path / "layout.csv"
    rc = main(["bench", "layout", "--size", "12", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1 + 4              # soa/aos x propagate/collide
    assert rows[0][-1] == "throughput [sites/s]"


def test_bench_halo_cli(tmp_path):
    out = tmp_path / "halo.csv"
    table = tmp_path / "bw.csv"
    rc = main(["bench", "halo", "--edges", "8", "--out", str(out),
               "--table-out", str(table)])
    assert rc == 0
    assert len(read_csv(out)) == 3         # header + 2 directions
    tables = read_bandwidth_table(table)
    assert set(tables) == {"contiguous", "non_contiguous"}


# --------------------------------------------------------------- validate --

def test_validate_pass_prints_lines(capsys):
    rc = main(["validate", "moments"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert lines and all(line.startswith("PASS") for line in lines)


def test_validate_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["validate", "nope"])


# --------------------------------------------------------------------- io --

def test_load_config_requires_mapping(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(Exception):
        load_config(p)
    p2 = tmp_path / "ok.yaml"
    p2.write_text("lx: 4\n")
    assert load_config(p2) == {"lx": 4}
