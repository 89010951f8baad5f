"""Acceptance gate: one test per shipping criterion, one PASS line each."""

import math
import time

import numpy as np
import pytest

from thermolb import (CostModelInput, LatticeGeometry, PhysicsParams,
                      SimConfig, allocate_field, bc, brent_bound, collide,
                      moments, native, predict_1d, predict_1d_overlap,
                      predict_2d, predict_2d_overlap, propagate,
                      propagate_collide_fused, run)
from thermolb.bench import bench_halo_exchange, cost_input_from_tables
from thermolb.errors import UnsupportedCaseError
from thermolb.planner import factor_pairs
from thermolb.validate import (suite_conservation, suite_moments,
                              suite_planner_oracle, suite_rank_invariance,
                              suite_taylor_green)
from conftest import periodic_fill, random_state


def ok(n, label):
    print(f"PASS criterion {n:02d}: {label}")


def test_c01_weights_and_moments():
    # normalization, odd moments through order 5 and even moments through
    # order 8 against the Gaussian values, which also equal their swaps
    native.load()                 # a first build of the kernel is not timed
    t0 = time.perf_counter()
    rows = suite_moments()
    assert all(okk for _, okk, _ in rows), rows
    assert time.perf_counter() - t0 < 1.0
    ok(1, "derived weights: normalization, parity, isotropy to 1e-12")


def test_c02_conservation_500_steps():
    rows = suite_conservation(Lx=64, Ly=64, steps=500)
    assert all(okk for _, okk, _ in rows), rows
    ok(2, "mass/momentum drift < 1e-12 over 500 periodic steps")


def test_c03_propagate_permutation(d2q37):
    geom = LatticeGeometry(32, 32, 3, 3, d2q37.Q)
    prv, nxt = allocate_field(geom, d2q37)
    prv.pops[:, geom.phys_x, geom.phys_y] = random_state(geom, d2q37, seed=11)[
        :, geom.phys_x, geom.phys_y]
    periodic_fill(prv)
    propagate(prv, nxt, d2q37)
    before = np.sort(prv.pops[:, geom.phys_x, geom.phys_y].reshape(-1))
    after = np.sort(nxt.pops[:, geom.phys_x, geom.phys_y].reshape(-1))
    assert np.array_equal(before, after)
    ok(3, "propagate is an exact permutation of stored values")


def test_c04_fused_equivalence(d2q37):
    params = PhysicsParams(tau=0.8, gy=-1e-4)
    geom = LatticeGeometry(16, 16, 3, 3, d2q37.Q)
    region = (geom.phys_x, geom.phys_y)
    for seed in range(100):
        prv, nxt = allocate_field(geom, d2q37)
        prv.pops[...] = random_state(geom, d2q37, seed=seed)
        ref = type(nxt)(geom)
        propagate(prv, ref, d2q37, region)
        xs, ys = region
        ref.pops[:, xs, ys] = collide(ref.pops[:, xs, ys], params, d2q37)
        propagate_collide_fused(prv, nxt, params, d2q37, region)
        assert np.array_equal(nxt.pops[:, xs, ys], ref.pops[:, xs, ys])
    ok(4, "fused propagate+collide bit-identical on 100 random states")


def test_c05_rank_count_invariance():
    rows = suite_rank_invariance(Lx=128, Ly=128, steps=100)
    assert all(okk for _, okk, _ in rows), rows
    ok(5, "bit-identical state across rank counts, grids and schedules")


def test_c06_planner_oracle():
    rows = suite_planner_oracle()
    assert all(okk for _, okk, _ in rows), rows
    ok(6, "integer grid matches brute force; real optimum matches formula")


def test_c07_model_limits():
    # infinite bandwidth: overlap model reaches perfect scaling
    inp = CostModelInput(4096, 4096, 8, Bx=1e30, By=1e30, beta=1e-8)
    assert abs(predict_1d_overlap(inp).scale_violation - 1.0) < 1e-9
    # square-lattice-only overlap estimate refuses rectangles
    with pytest.raises(UnsupportedCaseError):
        predict_2d_overlap(CostModelInput(100, 200, 4, 1e9, 1e9, 1e-8))
    # Brent bound spot values
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = float(rng.uniform(1e-9, 1e-5))
        N = int(rng.integers(1, 10**7))
        Np = int(rng.integers(1, 4096))
        assert brent_bound(w, N, Np) == w * (1.0 + (N - 1.0) / Np)
    ok(7, "overlap limit, square-only refusal and Brent bound all hold")


def test_c08_tiling_crossover():
    _, tables = bench_halo_exchange([16, 32], model="D2Q37", reps=5, inner=2)
    # calibrate per-site compute time from a short single-rank run
    t0 = time.perf_counter()
    run(SimConfig(Lx=48, Ly=48, Np=1, tiling=(1, 1), schedule="staged",
                  steps=5, params=PhysicsParams(tau=0.8), walls=False,
                  periodic_y=True, init="random"))
    beta = (time.perf_counter() - t0) / (48 * 48 * 5)

    def best_work(Np):
        inp = cost_input_from_tables(tables, Lx=3600, Ly=3600, Np=Np,
                                     beta=beta)
        one = min(predict_1d(inp).T_total, predict_1d_overlap(inp).T_total)
        grids = [(nx, ny) for nx, ny in factor_pairs(Np)
                 if nx > 1 and ny > 1]
        two = min((predict_2d(inp, grid=g).T_total for g in grids),
                  default=math.inf)
        two = min(two, predict_2d_overlap(inp).T_total)
        return Np * one, Np * two

    Np_list = [4, 16, 64, 256, 1024, 4096, 16384]
    wins_1d = [Np for Np in Np_list if best_work(Np)[0] <= best_work(Np)[1]]
    wins_2d = [Np for Np in Np_list if best_work(Np)[1] < best_work(Np)[0]]
    assert wins_1d, "1-D tiling should win (or tie) somewhere at small Np"
    assert wins_2d, "2-D tiling should win beyond the crossover"
    assert min(wins_1d) < min(wins_2d), "1-D must win before 2-D takes over"
    ok(8, f"1-D competitive through Np={max(wins_1d)}, "
          f"2-D ahead from Np={min(wins_2d)}")


def test_c09_taylor_green_decay():
    rows = suite_taylor_green(L=64, steps=2000, tau=0.8)
    assert all(okk for _, okk, _ in rows), rows
    ok(9, "viscous decay rate within 2% of exp(-2 nu k^2 t)")


def test_c10_bc_contract(d2q37):
    geom = LatticeGeometry(12, 16, 3, 3, d2q37.Q)
    prv, _ = allocate_field(geom, d2q37)
    prv.pops[...] = random_state(geom, d2q37, seed=5)
    params = PhysicsParams(tau=0.9, Twall_top=0.62, Twall_bot=0.81)
    interior = prv.pops[:, geom.phys_x,
                        geom.Hy + 3:geom.Hy + geom.Ly - 3].copy()
    bc(prv, params, d2q37)
    for rows, Twall in (
            (slice(geom.Hy + geom.Ly - 3, geom.Hy + geom.Ly), 0.62),
            (slice(geom.Hy, geom.Hy + 3), 0.81)):
        _, ux, uy, T = moments(prv.pops[:, geom.phys_x, rows], d2q37)
        assert max(np.max(np.abs(ux)), np.max(np.abs(uy))) < 1e-14
        assert np.max(np.abs(T - Twall)) < 1e-12
    assert np.array_equal(
        prv.pops[:, geom.phys_x, geom.Hy + 3:geom.Hy + geom.Ly - 3], interior)
    ok(10, "wall rows pinned to |u|<1e-14, |T-Twall|<1e-12, interior intact")


def test_c11_halo_poisoning():
    p = PhysicsParams(tau=0.8, gy=-1e-4, Twall_top=0.6, Twall_bot=0.75)
    res = run(SimConfig(Lx=32, Ly=32, model="D2Q37", Np=4, tiling=(2, 2),
                        schedule="overlapped", steps=50, params=p,
                        init="random", init_kwargs={"seed": 2},
                        debug_poison=True))
    assert np.all(np.isfinite(res.populations))
    res = run(SimConfig(Lx=32, Ly=32, model="D2Q37", Np=4, tiling=(2, 2),
                        schedule="staged", steps=50, params=p, init="random",
                        init_kwargs={"seed": 2}, debug_poison=True))
    assert np.all(np.isfinite(res.populations))
    ok(11, "50 NaN-poisoned steps leave every physical cell finite")


def test_c12_bench_gate():
    _, tables = bench_halo_exchange([16, 32], model="D2Q37")
    for (_, bw_c), (_, bw_nc) in zip(tables["contiguous"],
                                     tables["non_contiguous"]):
        assert bw_c >= 0.9 * bw_nc, (bw_c, bw_nc)
    inp = cost_input_from_tables(tables, Lx=512, Ly=512, Np=4, beta=1e-8)
    pred = predict_2d(inp, grid=(2, 2))
    assert pred.T_total > 0 and pred.T_C > 0
    ok(12, "contiguous >= 0.9x non-contiguous; table feeds the planner")
