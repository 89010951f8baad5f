"""Command-line entry point: simulate, plan, bench, validate.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 runtime error.
"""

import argparse
import os
import shutil
import sys
import traceback

from . import bench as bench_mod
from . import io as io_mod
from . import native, planner, validate
from .errors import ConfigurationError, ThermoLBError
from .kernels import PhysicsParams
from .sim import SimConfig, run


def _parse_tiling(text, Np):
    """(tiling, Np): '1d' takes Np (None: 1); NXxNY sets Np, and a given Np
    other than NX*NY is a configuration error."""
    if text in (None, "1d"):
        return "1d", 1 if Np is None else Np
    try:
        nx, ny = (int(p) for p in str(text).split("x"))
    except ValueError:
        raise ConfigurationError(
            f"tiling must be '1d' or 'NXxNY', got {text!r}") from None
    if Np is not None and Np != nx * ny:
        raise ConfigurationError(
            f"np={Np} does not match tiling {text} ({nx * ny} ranks)")
    return (nx, ny), nx * ny


def _merge(config, args, keys):
    """File values first, explicit flags override; a file key that is not
    one of keys is a configuration error."""
    for key in config:
        if key not in keys:
            raise ConfigurationError(f"unknown config key {key!r}")
    out = dict(config)
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            out[key] = val
    return out


def _value(cfg, key, kind, default=None):
    """cfg[key], or default when it is absent or null, converted by kind; a
    value kind rejects is a configuration error that names the key."""
    value = cfg.get(key)
    if value is None:
        value = default
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{key!r} must be {kind.__name__}, got {value!r}") from None


def mapping(value):
    """A key/value mapping from a config file, copied."""
    if not isinstance(value, dict):
        raise TypeError(value)
    return dict(value)


def boolean(value):
    """A yes/no value from --walls or a config file: 1/true/yes or
    0/false/no, in any case."""
    text = str(value).lower()
    if text in ("1", "true", "yes"):
        return True
    if text in ("0", "false", "no"):
        return False
    raise ValueError(f"not a yes/no value: {value!r}")


def int_list(value):
    """Comma-separated integers, or a list of them."""
    return [int(p) for p in (value.split(",") if isinstance(value, str)
                             else value)]


def _extents(cfg):
    """The required lattice extents (lx, ly) as ints."""
    for key in ("lx", "ly"):
        if cfg.get(key) is None:
            raise ConfigurationError(f"missing required key {key!r}")
    return _value(cfg, "lx", int), _value(cfg, "ly", int)


def cmd_simulate(args):
    config = io_mod.load_config(args.config) if args.config else {}
    keys = ["lx", "ly", "model", "tiling", "np", "schedule", "steps", "tau",
            "gx", "gy", "twall_top", "twall_bot", "init", "seed",
            "snapshot_every", "outdir", "tdp_watts", "walls", "init_kwargs"]
    cfg = _merge(config, args, keys)
    Lx, Ly = _extents(cfg)
    Np = None if cfg.get("np") is None else _value(cfg, "np", int)
    tiling, Np = _parse_tiling(cfg.get("tiling"), Np)
    vsname = cfg.get("model", "D2Q37")
    walls = _value(cfg, "walls", boolean, True)
    params = PhysicsParams(
        tau=_value(cfg, "tau", float, 1.0),
        gx=_value(cfg, "gx", float, 0.0),
        gy=_value(cfg, "gy", float, -1e-4),
        Twall_top=_value(cfg, "twall_top", float, 1.0),
        Twall_bot=_value(cfg, "twall_bot", float, 1.0),
    )
    init_kwargs = _value(cfg, "init_kwargs", mapping, {})
    if "seed" in cfg and cfg["seed"] is not None:
        init_kwargs.setdefault("seed", _value(cfg, "seed", int))
    sim = SimConfig(
        Lx=Lx, Ly=Ly, model=vsname, tiling=tiling,
        Np=Np, schedule=cfg.get("schedule", "overlapped"),
        steps=_value(cfg, "steps", int, 0), params=params, walls=walls,
        periodic_y=not walls, init=cfg.get("init", "uniform"),
        init_kwargs=init_kwargs,
        snapshot_every=_value(cfg, "snapshot_every", int, 0),
    )
    tdp_watts = _value(cfg, "tdp_watts", float, 0.0)
    result = run(sim)
    outdir = cfg.get("outdir", ".")
    os.makedirs(outdir, exist_ok=True)
    io_mod.write_table(
        os.path.join(outdir, "metrics.csv"),
        ["step", "rank", "t_comm_nc [s]", "t_comm_c [s]", "t_bulk [s]",
         "t_border [s]", "negative_populations [count]"],
        [[m["step"], m["rank"], repr(m["t_comm_nc"]), repr(m["t_comm_c"]),
          repr(m["t_bulk"]), repr(m["t_border"]), m["negatives"]]
         for m in result.metrics])

    def write_fields(tag, macro):
        paths = (os.path.join(outdir, f"T_{tag}.pgm"),
                 os.path.join(outdir, f"macro_{tag}.csv"))
        io_mod.write_pgm(paths[0], macro.T)
        io_mod.write_macro_csv(paths[1], macro)
        return paths

    written = [(macro, write_fields(f"{step:06d}", macro))
               for step, macro in result.snapshots]
    if written and written[-1][0] is result.macro:
        # the last snapshot is the final state: copy its files
        for src, name in zip(written[-1][1],
                             ("T_final.pgm", "macro_final.csv")):
            shutil.copyfile(src, os.path.join(outdir, name))
    else:
        write_fields("final", result.macro)
    lines = [f"steps: {sim.steps}", f"wall_seconds: {result.wall_seconds:.6f}",
             f"MLUPS: {result.mlups:.3f}", f"kernels: {native.kernel_path()}"]
    if tdp_watts and result.wall_seconds > 0 and sim.steps > 0:
        sites_per_s = sim.Lx * sim.Ly * sim.steps / result.wall_seconds
        lines.append(
            f"energy_per_site_uJ: {tdp_watts / sites_per_s / 1e-6:.3f}")
    summary = "\n".join(lines)
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(summary + "\n")
    print(summary)
    return 0


def cmd_plan(args):
    config = io_mod.load_config(args.config) if args.config else {}
    cfg = _merge(config, args, ["lx", "ly", "beta", "bx", "by", "s",
                                "np_list", "bandwidth_table", "out"])
    Lx, Ly = _extents(cfg)
    common = dict(Lx=Lx, Ly=Ly, Np=1,
                  beta=_value(cfg, "beta", float, 1e-8),
                  S=_value(cfg, "s", float, planner.DEFAULT_S))
    if cfg.get("bandwidth_table"):
        inp = bench_mod.cost_input_from_tables(
            io_mod.read_bandwidth_table(cfg["bandwidth_table"]), **common)
    else:
        inp = planner.CostModelInput(Bx=_value(cfg, "bx", float, 1e9),
                                     By=_value(cfg, "by", float, 1e9), **common)
    np_list = _value(cfg, "np_list", int_list, "1,2,4,8,16,32")
    rows = planner.scaling_curve(inp, np_list)
    out = cfg.get("out", "plan.csv")
    io_mod.write_table(
        out,
        ["Np", "tiling", "nx", "ny", "T_total [s]", "Np_x_T [s]",
         "scale_violation [1]"],
        [[r[0], r[1], r[2], r[3], repr(r[4]), repr(r[5]), repr(r[6])]
         for r in rows])
    print(f"wrote {len(rows)} prediction rows to {out}")
    return 0


def cmd_bench(args):
    which = args.which
    out = args.out or f"bench_{which}.csv"
    if which == "layout":
        rows = []
        for layout in bench_mod.LAYOUTS:
            r = bench_mod.bench_layout(args.size, args.size, layout=layout)
            rows.append([layout, r.repetitions, repr(r.median), repr(r.min),
                         repr(r.max), repr(r.metric)])
        io_mod.write_table(out, ["layout", "reps", "median [s]", "min [s]",
                                 "max [s]", "throughput [sites/s]"], rows)
    elif which == "misalignment":
        rows = []
        for offset in range(0, 65, 8):
            for mode in ("mraw", "armw"):
                r = bench_mod.bench_misalignment(args.bytes, offset, mode)
                rows.append([mode, offset, r.repetitions, repr(r.median),
                             repr(r.min), repr(r.max), repr(r.metric)])
        io_mod.write_table(out, ["mode", "offset [bytes]", "reps",
                                 "median [s]", "min [s]", "max [s]",
                                 "bandwidth [bytes/s]"], rows)
    elif which == "halo":
        edges = [int(e) for e in args.edges.split(",")]
        results, tables = bench_mod.bench_halo_exchange(edges)
        io_mod.write_table(out, ["name", "edge [sites]", "reps", "median [s]",
                                 "min [s]", "max [s]", "bandwidth [bytes/s]"],
                          [[r.name, r.parameter["edge"], r.repetitions,
                            repr(r.median), repr(r.min), repr(r.max),
                            repr(r.metric)] for r in results])
        table_path = args.table_out or "bandwidth_table.csv"
        io_mod.write_bandwidth_table(table_path, tables)
        print(f"wrote bandwidth table to {table_path}")
    else:
        raise ConfigurationError(f"unknown benchmark {which!r}")
    print(f"wrote {out}")
    return 0


def cmd_validate(args):
    rows = validate.run_suite(args.suite)
    failed = 0
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    return 1 if failed else 0


def build_parser():
    p = argparse.ArgumentParser(prog="thermolb",
                                description="Thermal LBM engine, planner and benchmarks")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="run the lattice engine")
    s.add_argument("--config", help="YAML config file")
    s.add_argument("--lx", type=int)
    s.add_argument("--ly", type=int)
    s.add_argument("--model", choices=["D2Q37", "D2Q9"])
    s.add_argument("--tiling", help="'1d' or 'NXxNY'")
    s.add_argument("--np", type=int, dest="np")
    s.add_argument("--schedule", choices=["staged", "overlapped"])
    s.add_argument("--steps", type=int)
    s.add_argument("--tau", type=float)
    s.add_argument("--gx", type=float)
    s.add_argument("--gy", type=float)
    s.add_argument("--twall-top", type=float)
    s.add_argument("--twall-bot", type=float)
    s.add_argument("--init", choices=["uniform", "random", "taylor-green",
                                      "rayleigh-taylor"])
    s.add_argument("--seed", type=int)
    s.add_argument("--snapshot-every", type=int)
    s.add_argument("--outdir")
    s.add_argument("--tdp-watts", type=float)
    s.add_argument("--walls", help="1/true/yes or 0/false/no")
    s.set_defaults(fn=cmd_simulate)

    s = sub.add_parser("plan", help="evaluate the scaling cost model")
    s.add_argument("--config")
    s.add_argument("--lx", type=int)
    s.add_argument("--ly", type=int)
    s.add_argument("--beta", type=float)
    s.add_argument("--bx", type=float)
    s.add_argument("--by", type=float)
    s.add_argument("--s", type=float)
    s.add_argument("--np-list")
    s.add_argument("--bandwidth-table")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_plan)

    s = sub.add_parser("bench", help="micro-benchmarks")
    s.add_argument("which", choices=["layout", "misalignment", "halo"])
    s.add_argument("--size", type=int, default=256)
    s.add_argument("--bytes", type=int, default=1 << 24)
    s.add_argument("--edges", default="64,128,256")
    s.add_argument("--out")
    s.add_argument("--table-out")
    s.set_defaults(fn=cmd_bench)

    s = sub.add_parser("validate", help="run a property suite")
    s.add_argument("suite", choices=sorted(validate.SUITES))
    s.set_defaults(fn=cmd_validate)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ThermoLBError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
