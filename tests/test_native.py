"""The compiled kernels against the numpy reference path, bit for bit.

The numpy path is forced by setting the loaded-library handle
(native._lib) to None, which is what the kernels see when no compiler is
available.
"""

import tracemalloc

import numpy as np
import pytest

from thermolb import (LatticeGeometry, PhysicsParams, PopulationField,
                      SimConfig, allocate_field, build_velocity_set,
                      propagate_collide_fused, run)
from thermolb import equilibrium, kernels, moments, native, sim
from thermolb.bench import stored_as
from thermolb.errors import DegenerateStateError, DomainError, ThermoLBError
from thermolb.geometry import same_bits
from thermolb.init import PRESETS, build_initial_state
from conftest import beyond_walls, layout_of, periodic_fill

# 480 physical sites: the whole tile is longer than the kernel's 256-site
# block, and neither extent is a multiple of it.
LX, LY = 24, 20


def make_state(vs, layout, kind, seed=7):
    g = LatticeGeometry(LX, LY, 3, 3, vs.Q)
    prv, _ = allocate_field(g, vs)
    if kind == "near-equilibrium":
        f = build_initial_state("random", LX, LY, vs, seed=seed,
                                amplitude=0.02)
        noise = np.random.default_rng(seed).standard_normal(f.shape)
        f = f * (1.0 + 1e-3 * noise)
    else:
        f = build_initial_state(kind, LX, LY, vs)
    prv.pops[:, g.phys_x, g.phys_y] = f
    periodic_fill(prv)
    prv = stored_as(prv, layout)
    assert layout_of(prv.pops) == layout
    return g, prv


def blank(prv):
    """A zeroed field in prv's layout: np.zeros_like keeps its strides'
    order."""
    return PopulationField(prv.geom, np.zeros_like(prv.pops))


def wall_rows(g, vs):
    return ((g.Hy, g.Hy + 3, 1.1 * vs.cs2, "bottom"),
            (g.Hy + g.Ly - 3, g.Hy + g.Ly, 0.9 * vs.cs2, "top"))


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
    nxt = PopulationField(prv.geom)
    with monkeypatch.context() as m:
        m.setattr(native, "_lib", None)
        propagate_collide_fused(prv, nxt, params, vs, region, walls)
    return nxt.pops


@pytest.mark.parametrize("kind", ["near-equilibrium", "rayleigh-taylor",
                                  "uniform"])
@pytest.mark.parametrize("layout", ["soa", "aos"])
@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_compiled_matches_numpy_bitwise(compiled, monkeypatch, model, order,
                                        layout, kind):
    vs = build_velocity_set(model)
    g, prv = make_state(vs, layout, kind)
    # both paths clamp pulls from beyond the walls to the edge rows
    for rows in beyond_walls(prv):
        rows[...] = np.nan
    # "uniform" is at rest with no force: its moments give uy = 0 exactly
    # (on D2Q9 ux too), so p is a signed zero on every hop with no x part,
    # and only a byte comparison sees the sign of a zero
    force = (0.0, 0.0) if kind == "uniform" else (2e-5, -1e-4)
    params = PhysicsParams(tau=0.8, gx=force[0], gy=force[1], eq_order=order)
    walls = wall_rows(g, vs)
    for name, (xs, ys) in regions(g).items():
        nxt = blank(prv)
        plan = native.Plan(prv, nxt, params, vs, walls)
        assert plan.run(prv, nxt, [(xs, ys)]) is not None, name
        want = numpy_result(monkeypatch, prv, params, vs, (xs, ys), walls)
        assert same_bits(nxt.pops, want), name
        assert np.all(nxt.pops[:, xs, ys] != 0.0), name


@pytest.mark.parametrize("layout", ["soa", "aos"])
@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_thin_boxes_compiled_match_numpy_bitwise(compiled, monkeypatch, model,
                                                 layout):
    # boxes lower than the kernel's THIN_ROWS are gathered along the row,
    # the rest along the column; the tile is wide enough that one row's
    # runs cross the kernel's 256-site block boundaries
    vs = build_velocity_set(model)
    lx, ly = 100, 20
    g = LatticeGeometry(lx, ly, 3, 3, vs.Q)
    prv, _ = allocate_field(g, vs)
    f = build_initial_state("random", lx, ly, vs, seed=4, amplitude=0.02)
    prv.pops[:, g.phys_x, g.phys_y] = f
    periodic_fill(prv)
    prv = stored_as(prv, layout)
    assert layout_of(prv.pops) == layout
    for rows in beyond_walls(prv):
        rows[...] = np.nan
    params = PhysicsParams(tau=0.8, gx=2e-5, gy=-1e-4)
    walls = wall_rows(g, vs)
    x0, x1, y0, y1 = g.Hx, g.Hx + g.Lx, g.Hy, g.Hy + g.Ly
    boxes = {
        "1 row, interior": (slice(x0, x1), slice(y0 + 9, y0 + 10)),
        "1 row, on the bottom wall": (slice(x0, x1), slice(y0, y0 + 1)),
        "2 rows against the bottom wall": (slice(x0, x1),
                                           slice(y0, y0 + 2)),
        "7 rows against the top wall": (slice(x0, x1), slice(y1 - 7, y1)),
        "7 rows, 50 wide, interior": (slice(x0 + 7, x0 + 57),
                                      slice(y0 + 6, y0 + 13)),
        "8 rows, interior": (slice(x0 + 3, x1 - 4), slice(y0 + 5, y0 + 13)),
        "9 rows against the bottom wall": (slice(x0 + 1, x1),
                                           slice(y0, y0 + 9)),
    }
    for name, (xs, ys) in boxes.items():
        nxt = blank(prv)
        plan = native.Plan(prv, nxt, params, vs, walls)
        assert plan.run(prv, nxt, [(xs, ys)]) is not None, name
        want = numpy_result(monkeypatch, prv, params, vs, (xs, ys), walls)
        assert same_bits(nxt.pops, want), name
        assert np.all(np.isfinite(nxt.pops[:, xs, ys])), name


@pytest.mark.parametrize("wrap, walls", [
    ((True, False), False), ((False, True), False), ((True, True), False),
    ((True, False), True)], ids=["x", "y", "xy", "x-walls"])
@pytest.mark.parametrize("path", ["native", "numpy"])
@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_wrapped_pulls_equal_a_periodically_padded_tile(request, monkeypatch,
                                                        model, path, wrap,
                                                        walls):
    # the halos of a wrapped axis are NaN, so every pull across it must read
    # the tile itself; the result equals, byte for byte, the call without
    # wrap on the same tile padded periodically.  Row runs wrap mid-run in
    # boxes lower than THIN_ROWS, and column runs in every box that meets
    # the Y ends.
    if path == "native":
        request.getfixturevalue("compiled")
    else:
        monkeypatch.setattr(native, "_lib", None)
    vs = build_velocity_set(model)
    params = PhysicsParams(tau=0.8, gx=2e-5, gy=-1e-4)
    h = vs.max_hop
    # name -> (Lx, Ly, box in physical offsets (x0, x1, y0, y1) or None for
    # the whole tile)
    tiles = {
        "max_hop wide and high": (h, h, None),
        "max_hop wide, 300 high": (h, 300, None),
        "3 rows, thinner than THIN_ROWS": (40, 12, (0, 40, 4, 7)),
        "7 rows against the bottom": (40, 12, (0, 40, 0, 7)),
        "5 rows, 500 sites": (100, 20, (0, 100, 15, 20)),
        "whole tile, 2000 sites": (100, 20, None),
        "inner box": (40, 12, (5, 30, 2, 10)),
    }
    for name, (lx, ly, box) in tiles.items():
        if walls and ly < 2 * 3:
            continue
        g = LatticeGeometry(lx, ly, 3, 3, vs.Q)
        f = build_initial_state("random", lx, ly, vs, seed=lx + ly,
                                amplitude=0.02)
        padded, _ = allocate_field(g, vs)
        padded.pops[...] = np.pad(f, ((0, 0), (3, 3), (3, 3)), mode="wrap")
        rows = wall_rows(g, vs) if walls else ()
        if walls:
            for beyond in beyond_walls(padded):
                beyond[...] = np.nan
        tile, _ = allocate_field(g, vs)
        tile.pops[...] = padded.pops
        if wrap[0]:
            tile.pops[:, :3] = tile.pops[:, 3 + lx:] = np.nan
        if wrap[1]:
            tile.pops[:, :, :3] = tile.pops[:, :, 3 + ly:] = np.nan
        x0, x1, y0, y1 = box or (0, lx, 0, ly)
        region = (slice(3 + x0, 3 + x1), slice(3 + y0, 3 + y1))
        got, want = (PopulationField(g) for _ in range(2))
        if path == "native":
            plan = native.Plan(tile, got, params, vs, rows, wrap)
            assert plan.run(tile, got, [region]) is not None, name
        else:
            propagate_collide_fused(tile, got, params, vs, region, rows,
                                    wrap=wrap)
        propagate_collide_fused(padded, want, params, vs, region, rows)
        assert same_bits(got.pops, want.pops), name
        assert np.all(np.isfinite(got.pops[:, region[0], region[1]])), name


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
    together = blank(prv)
    plan = native.Plan(prv, together, params, vs, walls)
    got = propagate_collide_fused(prv, together, params, vs, boxes, walls,
                                  plan)
    apart = blank(prv)
    one_by_one = native.Plan(prv, apart, params, vs, walls)
    want = sum(one_by_one.run(prv, apart, [box]) for box in boxes)
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
                propagate_collide_fused(prv, PopulationField(prv.geom),
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


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, "negative density"])
@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_bad_wall_same_error_both_paths(monkeypatch, model, bad):
    vs = build_velocity_set(model)
    g, prv = make_state(vs, "soa", "near-equilibrium")
    (lo, hi, Twall, side), top = wall_rows(g, vs)
    if bad == "negative density":
        # every pull of the wall sites x0+5..6, y0..y0+2 lands in the flipped
        # patch, the ones from beyond the wall through the clamp
        prv.pops[:, g.Hx + 2:g.Hx + 10, g.Hy:g.Hy + 6] *= -1.0
    else:
        Twall = bad
    # no force, so no temperature shift: at Twall 0 the collision's own
    # check sees the wall equilibrium's rounded temperature, which can be
    # > 0, and only the wall check catches it
    raised_on_both_paths(monkeypatch, DomainError, prv,
                         PhysicsParams(tau=0.8), vs,
                         ((lo, hi, Twall, side), top))


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


# runs store SoA only: every plan the compiled run builds is checked for it
@pytest.mark.parametrize("layout", ["soa"])
@pytest.mark.parametrize("Np,tiling,schedule", [(1, "1d", "staged"),
                                                (2, (1, 2), "overlapped"),
                                                (4, (2, 2), "overlapped")])
def test_in_kernel_negative_count_matches_numpy(compiled, monkeypatch, Np,
                                                tiling, schedule, layout):
    cfg = SimConfig(Np=Np, tiling=tiling, schedule=schedule, **NEGATIVE_RUN)
    built = []

    class RecordingPlan(native.Plan):
        def __init__(self, prv, nxt, *args):
            built.append((layout_of(prv.pops), layout_of(nxt.pops)))
            super().__init__(prv, nxt, *args)

    with monkeypatch.context() as m:
        m.setattr(native, "Plan", RecordingPlan)
        fast = run(cfg)
    assert len(built) == Np and set(built) == {(layout, layout)}
    monkeypatch.setattr(native, "_lib", None)
    slow = run(cfg)
    assert np.array_equal(fast.populations, slow.populations)
    assert negatives_rows(fast) == negatives_rows(slow)
    assert sum(n for _, _, n in negatives_rows(fast)) == 1858


def test_zero_step_run_without_the_library_matches_compiled(compiled,
                                                          monkeypatch):
    # a zero-step run builds its initial state through the compiled
    # equilibrium and reduces it through the compiled moments
    cfgs = [SimConfig(Lx=24, Ly=20, Np=2, schedule=schedule, steps=0,
                      init=init)
            for schedule in ("staged", "overlapped")
            for init in ("rayleigh-taylor", "random")]
    want = [run(cfg) for cfg in cfgs]
    monkeypatch.setattr(native, "_build_and_load", lambda: None)
    monkeypatch.setattr(native, "_lib", native._UNRESOLVED)
    for cfg, fast in zip(cfgs, want):
        slow = run(cfg)
        assert slow.populations.tobytes() == fast.populations.tobytes()
        for name in ("rho", "ux", "uy", "T"):
            assert (getattr(slow.macro, name).tobytes()
                    == getattr(fast.macro, name).tobytes()), name
    assert native._lib is None


def numpy_call(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(native, "_lib", None)
        return fn(*args, **kwargs)


def near_equilibrium_fields(vs, shape, seed=5):
    rng = np.random.default_rng(seed)
    return (1.0 + 0.05 * rng.standard_normal(shape),
            0.05 * rng.standard_normal(shape),
            0.05 * rng.standard_normal(shape),
            vs.cs2 * (1.0 + 0.05 * rng.standard_normal(shape)))


@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_initial_states_compiled_match_numpy_bitwise(compiled, monkeypatch,
                                                     model):
    vs = build_velocity_set(model)
    for name in PRESETS:
        fast = build_initial_state(name, LX, LY, vs)
        slow = numpy_call(monkeypatch, build_initial_state, name, LX, LY, vs)
        assert same_bits(fast, slow), name


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_equilibrium_compiled_matches_numpy_bitwise(compiled, monkeypatch,
                                                    model, order):
    vs = build_velocity_set(model)
    cases = {name: numpy_call(monkeypatch, moments,
                              build_initial_state(name, LX, LY, vs), vs)
             for name in PRESETS}
    cases["near-equilibrium"] = near_equilibrium_fields(vs, (LX, LY))
    cases["one row of sites"] = near_equilibrium_fields(vs, (LX * LY,), 6)
    for name, fields in cases.items():
        assert native.equilibrium(*fields, vs, order) is not None, name
        fast = equilibrium(*fields, vs, order=order)
        slow = numpy_call(monkeypatch, equilibrium, *fields, vs, order=order)
        assert same_bits(fast, slow), name


def pair_edge_cases(n=64, seed=11):
    """(ux, uy) cases where the equilibria of a hop and of its opposite
    meet exact zeros, subnormals and overflow."""
    rng = np.random.default_rng(seed)
    a = 0.05 * rng.standard_normal(n)
    zero = np.zeros(n)
    signs = rng.choice([-1.0, 1.0], n)
    subnormal = rng.integers(-2 ** 40, 2 ** 40, n) * 5e-324
    huge = signs * 10.0 ** rng.uniform(70.0, 160.0, n)
    return {
        "u = 0": (zero, zero),
        "u = -0": (-zero, -zero),
        # p = 0 by cancellation for the (1, -1) and (1, 1) hops, and for
        # (1, -2), (1, 2), (2, -1) and (2, 1) below
        "ux = uy": (a, a),
        "ux = -uy": (a, -a),
        "ux = 2 uy": (2.0 * a, a),
        "ux = -2 uy": (-2.0 * a, a),
        "uy = 2 ux": (a, 2.0 * a),
        "uy = -2 ux": (a, -2.0 * a),
        "subnormal ux": (subnormal, zero),
        "subnormal u": (subnormal, subnormal[::-1]),
        "subnormal ux = uy": (subnormal, subnormal),
        "subnormal ux = -2 uy": (-2.0 * subnormal, subnormal),
        # p^4 overflows: c4 is inf, or NaN once s p^2 overflows as well
        "huge u": (huge, rng.permutation(huge)),
        "huge ux = uy": (huge, huge),
    }


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_equilibrium_pairs_match_numpy_bitwise(compiled, monkeypatch, model,
                                               order):
    # the compiled equilibrium shares the terms even in p between a hop and
    # its opposite; the numpy reference computes every population apart
    vs = build_velocity_set(model)
    rng = np.random.default_rng(12)
    n = 64
    rho = 1.0 + 0.05 * rng.standard_normal(n)
    T = vs.cs2 * (1.0 + 0.05 * rng.standard_normal(n))
    for name, (ux, uy) in pair_edge_cases(n).items():
        fast = native.equilibrium(rho, ux, uy, T, vs, order)
        with np.errstate(over="ignore", invalid="ignore"):
            slow = numpy_call(monkeypatch, equilibrium, rho, ux, uy, T, vs,
                              order=order)
        assert same_bits(fast, slow), name
        if name == "huge u" and order == 4:
            assert np.isinf(slow).any() and np.isnan(slow).any(), name


@pytest.mark.parametrize("model,norms", [("D2Q37", [0, 1, 2, 4, 5, 8, 9, 10]),
                                         ("D2Q9", [0, 1, 2])])
def test_shell_table(model, norms):
    # shells of equal |c|^2 in increasing order, each a list of (lead,
    # opposite) pairs; every population of a shell has the same q = |c/cs|^2
    # to the bit, and the pairs cover every population once
    vs = build_velocity_set(model)
    shells = native.shells(vs)
    cs = np.sqrt(vs.cs2)
    e = vs.c / cs
    q = e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1]
    seen = []
    assert len(shells) == len(norms)
    for shell, norm in zip(shells, norms):
        members = sorted({l for pair in shell for l in pair})
        assert all(l <= b and (vs.c[b] == -vs.c[l]).all() for l, b in shell)
        assert [int(vs.c[l] @ vs.c[l]) for l in members] == [norm] * len(
            members)
        assert same_bits(q[members], np.full(len(members), q[members[0]]))
        seen += members
    assert sorted(seen) == list(range(vs.Q))


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_rest_state_equilibrium_is_rho_w_exactly(monkeypatch, model, order):
    vs = build_velocity_set(model)
    rho = 0.5 + np.random.default_rng(3).random(40)
    zero = np.zeros_like(rho)
    T = np.full_like(rho, vs.cs2)
    want = vs.w[:, None] * rho
    assert same_bits(equilibrium(rho, zero, zero, T, vs, order=order), want)
    assert same_bits(numpy_call(monkeypatch, equilibrium, rho, zero, zero, T,
                                vs, order=order), want)


@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_moments_compiled_matches_numpy_bitwise(compiled, monkeypatch, model):
    vs = build_velocity_set(model)
    g, prv = make_state(vs, "soa", "near-equilibrium")
    view = prv.pops[:, g.phys_x, g.phys_y]
    assert not view.flags.c_contiguous
    blocks = {"strided pops view": view,
              "contiguous block": np.ascontiguousarray(view),
              "sites flattened": view.reshape(vs.Q, -1),
              "rayleigh-taylor": build_initial_state("rayleigh-taylor", LX,
                                                     LY, vs)}
    for name, f in blocks.items():
        assert native.moments(f, vs) is not None, name
        for check in (True, False):
            fast = moments(f, vs, check=check)
            slow = numpy_call(monkeypatch, moments, f, vs, check=check)
            assert all(same_bits(a, b) for a, b in zip(fast, slow)), name


@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_moments_read_a_padded_view_in_place(compiled, model):
    # a rank's snapshot block is a strided view of its padded buffer: the
    # compiled moments read it through its strides, with no copy of the
    # populations, and give the contiguous block's bits
    vs = build_velocity_set(model)
    g, prv = make_state(vs, "soa", "near-equilibrium")
    view = prv.pops[:, g.phys_x, g.phys_y]
    want = moments(np.ascontiguousarray(view), vs)
    tracemalloc.start()
    try:
        got = moments(view, vs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(same_bits(a, b) for a, b in zip(got, want))
    # the four outputs take 32 B a site; a copy would add 8 Q B a site
    assert peak < 40 * LX * LY


def test_fallback_inputs_keep_their_results(compiled, monkeypatch, d2q37):
    # the compiled forms refuse these inputs, so the numpy code runs them
    rho, ux, uy, T = near_equilibrium_fields(d2q37, (LX, LY))
    rest = (np.float64(1.0), 0.0, 0.0, np.float64(d2q37.cs2))
    equilibrium_cases = {
        "0-d scalars": rest,
        "broadcast shapes": (rho, ux[:, :1], 0.0, T[:1, :]),
        "float32 temperature": (rho, ux, uy, T.astype(np.float32)),
        "python lists": (rho[0].tolist(), ux[0].tolist(), uy[0].tolist(),
                         T[0].tolist()),
    }
    for name, fields in equilibrium_cases.items():
        assert native.equilibrium(*fields, d2q37, 4) is None, name
        fast = equilibrium(*fields, d2q37)
        slow = numpy_call(monkeypatch, equilibrium, *fields, d2q37)
        assert same_bits(fast, slow), name
    assert np.array_equal(equilibrium(*rest, d2q37), d2q37.w)

    f = build_initial_state("random", LX, LY, d2q37)
    moment_cases = {
        "one site": f[:, 0, 0],
        "float32 block": f.astype(np.float32),
    }
    for name, block in moment_cases.items():
        assert native.moments(block, d2q37) is None, name
        fast = moments(block, d2q37)
        slow = numpy_call(monkeypatch, moments, block, d2q37)
        assert all(same_bits(a, b) for a, b in zip(fast, slow)), name
    assert native.moments(f[:9], d2q37) is None
    with pytest.raises(IndexError):
        moments(f[:9], d2q37)


def test_degenerate_inputs_keep_their_errors(compiled, monkeypatch, d2q37):
    rho, ux, uy, T = near_equilibrium_fields(d2q37, (LX, LY))
    rho[3, 4] = 0.0
    for lib in (native.load(), None):
        monkeypatch.setattr(native, "_lib", lib)
        with pytest.raises(DomainError, match="rho > 0 and T > 0"):
            equilibrium(rho, ux, uy, T, d2q37)
    f = build_initial_state("random", LX, LY, d2q37)
    f[:, 2, 3] = 0.0
    assert native.moments(f, d2q37) is None
    errors, unchecked = [], []
    for lib in (native.load(), None):
        monkeypatch.setattr(native, "_lib", lib)
        with pytest.raises(DegenerateStateError) as err:
            moments(f, d2q37)
        errors.append((str(err.value), err.value.sites.tolist()))
        with np.errstate(divide="ignore", invalid="ignore"):
            unchecked.append(moments(f, d2q37, check=False))
    assert errors[0] == errors[1] == ("non-positive density at [[2, 3]]",
                                      [[2, 3]])
    assert all(same_bits(a, b) for a, b in zip(*unchecked))


@pytest.mark.parametrize("schedule", ["staged", "overlapped"])
def test_step_makes_one_call_per_region_group(compiled, monkeypatch,
                                              schedule):
    # staged: one compiled call; overlapped: the bulk, then both frames;
    # every call through the one plan each rank built with itself
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
