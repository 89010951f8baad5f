"""The compiled fused kernel against the numpy reference path, bit for bit.

The numpy path is forced by setting the loaded-library handle
(native._lib) to None, which is what the kernels see when no compiler is
available.
"""

import numpy as np
import pytest

from thermolb import (LatticeGeometry, PhysicsParams, SimConfig,
                      allocate_field, build_velocity_set,
                      propagate_collide_fused, run)
from thermolb import kernels, native, sim
from thermolb.errors import DegenerateStateError, DomainError, ThermoLBError
from thermolb.init import build_initial_state
from conftest import periodic_fill

# 480 physical sites: the whole tile is longer than the kernel's 256-site
# block, and neither extent is a multiple of it.
LX, LY = 24, 20


@pytest.fixture
def compiled():
    if native.load() is None:
        pytest.skip("no C compiler here: the compiled kernel is unavailable")


def make_state(vs, layout, kind, seed=7):
    g = LatticeGeometry(LX, LY, 3, 3, vs.Q, layout)
    prv, _ = allocate_field(g, vs)
    if kind == "near-equilibrium":
        f = build_initial_state("random", LX, LY, vs, seed=seed,
                                amplitude=0.02)
        noise = np.random.default_rng(seed).standard_normal(f.shape)
        f = f * (1.0 + 1e-3 * noise)
    else:
        f = build_initial_state("rayleigh-taylor", LX, LY, vs)
    prv.pops[:, g.phys_x, g.phys_y] = f
    periodic_fill(prv)
    return g, prv


def wall_rows(g, vs):
    return ((g.Hy, g.Hy + 3, 1.1 * vs.cs2),
            (g.Hy + g.Ly - 3, g.Hy + g.Ly, 0.9 * vs.cs2))


def regions(g):
    x0, x1, y0, y1 = g.Hx, g.Hx + g.Lx, g.Hy, g.Hy + g.Ly
    return {
        "single site": (slice(x0 + 5, x0 + 6), slice(y0 + 7, y0 + 8)),
        "left frame": (slice(x0, x0 + 3), slice(y0 + 3, y1 - 3)),
        "bottom frame": (slice(x0, x1), slice(y0, y0 + 3)),
        "across bottom wall": (slice(x0 + 2, x0 + 9), slice(y0 + 1, y0 + 6)),
        "across top wall": (slice(x0 + 2, x0 + 9), slice(y1 - 5, y1)),
        "whole tile": (slice(x0, x1), slice(y0, y1)),
    }


def numpy_result(monkeypatch, prv, params, vs, region, walls):
    nxt = type(prv)(prv.geom, "nxt")
    with monkeypatch.context() as m:
        m.setattr(native, "_lib", None)
        propagate_collide_fused(prv, nxt, params, vs, region, walls)
    return nxt.pops


@pytest.mark.parametrize("kind", ["near-equilibrium", "rayleigh-taylor"])
@pytest.mark.parametrize("layout", ["soa", "aos"])
@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_compiled_matches_numpy_bitwise(compiled, monkeypatch, model, order,
                                        layout, kind):
    vs = build_velocity_set(model)
    g, prv = make_state(vs, layout, kind)
    params = PhysicsParams(tau=0.8, gx=2e-5, gy=-1e-4, eq_order=order)
    walls = wall_rows(g, vs)
    for name, (xs, ys) in regions(g).items():
        nxt = type(prv)(g, "nxt")
        assert native.fused(prv, nxt, params, vs, xs, ys, walls) is not None, name
        want = numpy_result(monkeypatch, prv, params, vs, (xs, ys), walls)
        assert np.array_equal(nxt.pops, want), name
        assert np.all(nxt.pops[:, xs, ys] != 0.0), name


@pytest.mark.parametrize("layout", ["soa", "aos"])
@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_region_list_equals_regions_one_at_a_time(compiled, model, layout):
    vs = build_velocity_set(model)
    g, prv = make_state(vs, layout, "rayleigh-taylor")
    # strong noise and over-relaxation, so the kernel writes negative values
    noise = np.random.default_rng(3).standard_normal((vs.Q, LX, LY))
    prv.pops[:, g.phys_x, g.phys_y] *= 1.0 + 0.3 * noise
    periodic_fill(prv)
    params = PhysicsParams(tau=0.52, gy=-1e-3)
    walls = wall_rows(g, vs)
    x0, x1, y0, y1 = g.Hx, g.Hx + g.Lx, g.Hy, g.Hy + g.Ly
    boxes = [(slice(x0 + 3, x1 - 3), slice(y0, y1)),
             (slice(x0, x0 + 3), slice(y0, y1)),
             (slice(x1 - 3, x1), slice(y0 + 1, y1))]
    together = type(prv)(g, "nxt")
    plan = native.Plan(prv, together, params, vs, walls)
    got = propagate_collide_fused(prv, together, params, vs, boxes, walls,
                                  plan)
    apart = type(prv)(g, "nxt")
    want = sum(native.fused(prv, apart, params, vs, xs, ys, walls)
               for xs, ys in boxes)
    assert np.array_equal(together.pops, apart.pops)
    assert got == want > 0
    assert want == kernels.count_negative(apart.pops[:, g.phys_x, g.phys_y])
    # the plan serves its own buffers in either order, and nothing else
    assert plan.serves(together, prv, params, vs, walls)
    assert not plan.serves(prv, apart, params, vs, walls)
    assert not plan.serves(prv, together, params, vs, tuple(list(walls)))
    assert not plan.serves(prv, together, PhysicsParams(tau=0.52, gy=-1e-3),
                           vs, walls)


def raised_on_both_paths(monkeypatch, exc_type, prv, params, vs, walls):
    errors = []
    for lib in (native.load(), None):
        with monkeypatch.context() as m:
            m.setattr(native, "_lib", lib)
            with pytest.raises(exc_type) as err:
                propagate_collide_fused(prv, type(prv)(prv.geom, "nxt"),
                                        params, vs, walls=walls)
        assert type(err.value) is exc_type
        errors.append(err.value)
    assert str(errors[0]) == str(errors[1])
    return errors


def test_degenerate_density_same_error_both_paths(monkeypatch):
    vs = build_velocity_set("D2Q37")
    g, prv = make_state(vs, "soa", "near-equilibrium")
    # every pull of the sites x0+5..6, y0+9..10 lands in the flipped patch
    prv.pops[:, g.Hx + 2:g.Hx + 10, g.Hy + 6:g.Hy + 14] *= -1.0
    params = PhysicsParams(tau=0.8, gy=-1e-4)
    native_err, numpy_err = raised_on_both_paths(
        monkeypatch, DegenerateStateError, prv, params, vs, wall_rows(g, vs))
    assert np.array_equal(native_err.sites, numpy_err.sites)
    assert [5, 9] in numpy_err.sites.tolist()


def test_frozen_temperature_same_error_both_paths(monkeypatch):
    vs = build_velocity_set("D2Q37")
    g, prv = make_state(vs, "soa", "rayleigh-taylor")
    params = PhysicsParams(tau=10.0, gy=-0.5)     # tau^2 g^2 / 2 >> T
    raised_on_both_paths(monkeypatch, DomainError, prv, params, vs, ())


def wall_run_config(Np, tiling, schedule):
    return SimConfig(Lx=32, Ly=32, model="D2Q37", Np=Np, tiling=tiling,
                     schedule=schedule, steps=5, init="rayleigh-taylor",
                     params=PhysicsParams(tau=0.8, gy=-1e-4, Twall_top=0.63,
                                          Twall_bot=0.77))


@pytest.mark.parametrize("Np,tiling,schedule", [(1, "1d", "staged"),
                                                (4, (2, 2), "overlapped")])
def test_run_bit_identical_to_numpy_path(compiled, monkeypatch, Np, tiling,
                                         schedule):
    cfg = wall_run_config(Np, tiling, schedule)
    fast = run(cfg)
    monkeypatch.setattr(native, "_lib", None)
    slow = run(cfg)
    assert np.array_equal(fast.populations, slow.populations)


NEGATIVE_RUN = dict(Lx=32, Ly=32, model="D2Q37", steps=6,
                    init="rayleigh-taylor",
                    init_kwargs={"perturbation": 0.3},
                    params=PhysicsParams(tau=0.52, gy=-1e-3, Twall_top=0.5,
                                         Twall_bot=1.2))


def negatives_rows(result):
    return [(m["step"], m["rank"], m["negatives"]) for m in result.metrics]


@pytest.mark.parametrize("layout", ["soa", "aos"])
@pytest.mark.parametrize("Np,tiling,schedule", [(1, "1d", "staged"),
                                                (2, (1, 2), "overlapped"),
                                                (4, (2, 2), "overlapped")])
def test_in_kernel_negative_count_matches_numpy(compiled, monkeypatch, Np,
                                                tiling, schedule, layout):
    cfg = SimConfig(Np=Np, tiling=tiling, schedule=schedule, layout=layout,
                    **NEGATIVE_RUN)
    fast = run(cfg)
    monkeypatch.setattr(native, "_lib", None)
    slow = run(cfg)
    assert np.array_equal(fast.populations, slow.populations)
    assert negatives_rows(fast) == negatives_rows(slow)
    assert sum(n for _, _, n in negatives_rows(fast)) == 1858


def test_zero_step_run_never_resolves_the_library(monkeypatch):
    def refuse():
        raise AssertionError("the library was resolved")

    monkeypatch.setattr(native, "_build_and_load", refuse)
    monkeypatch.setattr(native, "_lib", native._UNRESOLVED)
    for schedule in ("staged", "overlapped"):
        run(SimConfig(Lx=16, Ly=16, Np=2, schedule=schedule, steps=0))
    assert native._lib is native._UNRESOLVED


@pytest.mark.parametrize("schedule", ["staged", "overlapped"])
def test_step_makes_one_call_per_region_group(compiled, monkeypatch,
                                              schedule):
    # staged: one compiled call; overlapped: the bulk, then both frames;
    # every call through the plan the rank built on its first step
    calls, plans = [], []
    plan_init, plan_run = native.Plan.__init__, native.Plan.run

    def counting_init(plan, *args):
        plans.append(plan)
        plan_init(plan, *args)

    def counting_run(plan, prv, nxt, boxes):
        calls.append((plan, len(boxes)))
        return plan_run(plan, prv, nxt, boxes)

    def refuse(f):
        raise AssertionError("count_negative called on the compiled path")

    monkeypatch.setattr(native.Plan, "__init__", counting_init)
    monkeypatch.setattr(native.Plan, "run", counting_run)
    monkeypatch.setattr(kernels, "count_negative", refuse)
    res = run(SimConfig(Np=2, tiling="1d", schedule=schedule, **NEGATIVE_RUN))
    per_step = [1] if schedule == "staged" else [1, 2]
    assert len(plans) == 2
    for plan in plans:
        boxes = [n for p, n in calls if p is plan]
        assert boxes == per_step * NEGATIVE_RUN["steps"]
    assert len(calls) == len(per_step) * 2 * NEGATIVE_RUN["steps"]
    assert sum(m["negatives"] for m in res.metrics) > 0


@pytest.mark.parametrize("Np,schedule", [(1, "staged"), (2, "overlapped")])
def test_degenerate_run_fails_alike_on_both_paths(monkeypatch, Np, schedule):
    # flip a patch inside rank 1's tile (rank 0's when Np=1): that rank's
    # first kernel call meets non-positive densities
    def flipped(*args, **kwargs):
        f = build_initial_state(*args, **kwargs)
        f[:, 16:20, 8:12] *= -1.0
        return f

    monkeypatch.setattr(sim, "build_initial_state", flipped)
    cfg = SimConfig(Lx=24, Ly=20, Np=Np, schedule=schedule, steps=3,
                    init="rayleigh-taylor")
    messages = []
    for lib in (native.load(), None):
        monkeypatch.setattr(native, "_lib", lib)
        with pytest.raises(ThermoLBError) as err:
            run(cfg)
        assert isinstance(err.value.__cause__, DegenerateStateError)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"rank {Np - 1} failed")
    assert messages[0].endswith("(1 rank failure(s) total)")


def test_missing_compiler_falls_back_to_numpy(monkeypatch):
    cfg = wall_run_config(1, "1d", "staged")
    first = run(cfg)
    monkeypatch.setattr(native, "_compiler", lambda: None)
    monkeypatch.setattr(native, "_lib", native._UNRESOLVED)
    again = run(cfg)
    assert native._lib is None and native.kernel_path() == "numpy"
    assert np.array_equal(first.populations, again.populations)


def test_builds_once_into_cache_dir(compiled, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_lib", native._UNRESOLVED)
    assert native.load() is not None
    built = list((tmp_path / "thermolb").iterdir())
    assert len(built) == 1 and built[0].name.startswith("fused-")
    assert built[0].suffix == ".so"
    stamp = built[0].stat().st_mtime_ns
    monkeypatch.setattr(native, "_lib", native._UNRESOLVED)
    assert native.load() is not None            # reused, not rebuilt
    assert list((tmp_path / "thermolb").iterdir()) == built
    assert built[0].stat().st_mtime_ns == stamp


def test_unwritable_cache_dir_falls_back(monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(native, "_lib", native._UNRESOLVED)
    assert native.load() is None
