import itertools

import numpy as np
import pytest

from thermolb import (LatticeGeometry, PhysicsParams, allocate_field,
                      apply_shift, bc, collide, equilibrium, moments,
                      propagate, propagate_collide_fused)
from thermolb.errors import (ContractViolation, DegenerateStateError,
                             DomainError)
from conftest import periodic_fill, random_state


# ---------------------------------------------------------------- moments --

def test_moments_rest_state(d2q37):
    rho, ux, uy, T = moments(d2q37.w[:, None], d2q37)
    assert rho[0] == pytest.approx(1.0, abs=1e-14)
    assert abs(ux[0]) < 1e-14 and abs(uy[0]) < 1e-14
    assert T[0] == pytest.approx(d2q37.cs2, abs=1e-13)


def test_moments_d2q9_rest_temperature(d2q9):
    # brute-force oracle: T = sum w |c|^2 / 2 at rest
    expect = float(np.sum(d2q9.w * (d2q9.c ** 2).sum(axis=1))) / 2.0
    _, _, _, T = moments(d2q9.w[:, None], d2q9)
    assert expect == pytest.approx(1 / 3, abs=1e-15)
    assert T[0] == pytest.approx(expect, abs=1e-15)


def test_moments_zero_state_rejected(d2q9):
    with pytest.raises(DegenerateStateError):
        moments(np.zeros((9, 1)), d2q9)


def test_moments_match_brute_force(d2q37):
    rng = np.random.default_rng(2)
    f = 0.1 + rng.random((37, 4))
    rho, ux, uy, T = moments(f, d2q37)
    c = d2q37.c.astype(float)
    for j in range(4):
        r = f[:, j].sum()
        u = (c * f[:, j, None]).sum(axis=0) / r
        e = sum(f[l, j] * ((c[l, 0] - u[0]) ** 2 + (c[l, 1] - u[1]) ** 2)
                for l in range(37))
        assert rho[j] == pytest.approx(r, rel=1e-14)
        assert ux[j] == pytest.approx(u[0], rel=1e-12)
        assert T[j] == pytest.approx(e / (2 * r), rel=1e-11)


# ------------------------------------------------------------ equilibrium --

def hermite_oracle(rho, u, T, vs, order):
    """Independent tensor-contraction implementation of the expansion."""
    cs = np.sqrt(vs.cs2)
    v = np.asarray(u) / cs
    theta = T / vs.cs2 - 1.0
    delta = np.eye(2)
    out = np.empty(vs.Q)
    for l in range(vs.Q):
        e = vs.c[l] / cs
        term = 1.0 + e @ v
        if order >= 2:
            a2 = np.outer(v, v) + theta * delta
            h2 = np.outer(e, e) - delta
            term += 0.5 * np.tensordot(a2, h2)
        if order >= 3:
            a3 = np.zeros((2, 2, 2))
            h3 = np.zeros((2, 2, 2))
            for i, j, k in itertools.product(range(2), repeat=3):
                a3[i, j, k] = (v[i] * v[j] * v[k]
                               + theta * (delta[i, j] * v[k]
                                          + delta[i, k] * v[j]
                                          + delta[j, k] * v[i]))
                h3[i, j, k] = (e[i] * e[j] * e[k]
                               - (delta[i, j] * e[k] + delta[i, k] * e[j]
                                  + delta[j, k] * e[i]))
            term += np.sum(a3 * h3) / 6.0
        if order >= 4:
            a4 = np.zeros((2, 2, 2, 2))
            h4 = np.zeros((2, 2, 2, 2))
            for i, j, k, m in itertools.product(range(2), repeat=4):
                a4[i, j, k, m] = (
                    v[i] * v[j] * v[k] * v[m]
                    + theta * (delta[i, j] * v[k] * v[m]
                               + delta[i, k] * v[j] * v[m]
                               + delta[i, m] * v[j] * v[k]
                               + delta[j, k] * v[i] * v[m]
                               + delta[j, m] * v[i] * v[k]
                               + delta[k, m] * v[i] * v[j])
                    + theta ** 2 * (delta[i, j] * delta[k, m]
                                    + delta[i, k] * delta[j, m]
                                    + delta[i, m] * delta[j, k]))
                h4[i, j, k, m] = (
                    e[i] * e[j] * e[k] * e[m]
                    - (delta[i, j] * e[k] * e[m]
                       + delta[i, k] * e[j] * e[m]
                       + delta[i, m] * e[j] * e[k]
                       + delta[j, k] * e[i] * e[m]
                       + delta[j, m] * e[i] * e[k]
                       + delta[k, m] * e[i] * e[j])
                    + (delta[i, j] * delta[k, m]
                       + delta[i, k] * delta[j, m]
                       + delta[i, m] * delta[j, k]))
            term += np.sum(a4 * h4) / 24.0
        out[l] = vs.w[l] * rho * term
    return out


@pytest.mark.parametrize("model,order", [("D2Q37", 4), ("D2Q9", 2)])
def test_equilibrium_matches_tensor_oracle(model, order, d2q37, d2q9):
    vs = d2q37 if model == "D2Q37" else d2q9
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = 0.5 + rng.random()
        u = 0.1 * rng.standard_normal(2)
        T = vs.cs2 * (0.8 + 0.4 * rng.random())
        got = equilibrium(np.float64(rho), u[0], u[1], np.float64(T), vs,
                          order=order)
        want = hermite_oracle(rho, u, T, vs, order)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-16)


def test_equilibrium_rest_fixed_point(d2q37):
    f = equilibrium(np.float64(1.0), 0.0, 0.0, np.float64(d2q37.cs2), d2q37)
    assert np.array_equal(f, d2q37.w)


def test_equilibrium_mass_preserved(d2q37):
    rng = np.random.default_rng(9)
    for _ in range(5):
        rho = 0.5 + rng.random()
        f = equilibrium(np.float64(rho), 0.08 * rng.standard_normal(),
                        0.08 * rng.standard_normal(),
                        np.float64(d2q37.cs2 * (0.9 + 0.2 * rng.random())),
                        d2q37)
        assert f.sum() == pytest.approx(rho, rel=1e-13)


def test_equilibrium_momentum_exact_d2q9(d2q9):
    f = equilibrium(np.float64(1.0), 0.05, 0.0, np.float64(d2q9.cs2), d2q9)
    _, ux, uy, _ = moments(f[:, None], d2q9)
    assert abs(ux[0] - 0.05) < 1e-12
    assert abs(uy[0]) < 1e-12


def test_equilibrium_rejects_bad_state(d2q9):
    with pytest.raises(DomainError):
        equilibrium(np.float64(-1.0), 0.0, 0.0, np.float64(0.3), d2q9)
    with pytest.raises(DomainError):
        equilibrium(np.float64(1.0), 0.0, 0.0, np.float64(0.0), d2q9)


# ------------------------------------------------------------ apply_shift --

def test_shift_identity_without_force():
    p = PhysicsParams(tau=1.0)
    ub, vb, Tb = apply_shift(0.1, -0.2, 0.5, p)
    assert (ub, vb, Tb) == (0.1, -0.2, 0.5)


def test_shift_formula():
    p = PhysicsParams(tau=1.0, gy=-0.01)
    ub, vb, Tb = apply_shift(0.0, 0.0, 0.5, p)
    assert ub == 0.0
    assert vb == pytest.approx(-0.01)
    assert Tb == pytest.approx(0.5 - 5e-5)


def test_shift_rejects_frozen_temperature():
    p = PhysicsParams(tau=10.0, gy=-0.5)
    with pytest.raises(DomainError):
        apply_shift(0.0, 0.0, 0.5, p)


# -------------------------------------------------------------- propagate --

def make_pair(vs, Lx=8, Ly=8):
    g = LatticeGeometry(Lx, Ly, 3, 3, vs.Q)
    return g, *allocate_field(g, vs)


def test_propagate_moves_single_value(d2q37):
    g, prv, nxt = make_pair(d2q37)
    l = d2q37.find(2, 1)
    prv.pops[l, g.Hx + 4, g.Hy + 4] = 1.0
    propagate(prv, nxt, d2q37)
    assert nxt.pops[l, g.Hx + 6, g.Hy + 5] == 1.0
    assert nxt.pops[l].sum() == 1.0


def test_propagate_uniform_invariant(d2q9):
    g, prv, nxt = make_pair(d2q9)
    prv.pops[...] = d2q9.w[:, None, None]
    propagate(prv, nxt, d2q9)
    assert np.array_equal(nxt.pops[:, g.phys_x, g.phys_y],
                          prv.pops[:, g.phys_x, g.phys_y])


def test_propagate_is_permutation(d2q37):
    # sort-and-compare oracle on a periodic lattice
    g, prv, nxt = make_pair(d2q37, 8, 8)
    prv.pops[:, g.phys_x, g.phys_y] = random_state(g, d2q37)[
        :, g.phys_x, g.phys_y]
    periodic_fill(prv)
    propagate(prv, nxt, d2q37)
    before = np.sort(prv.pops[:, g.phys_x, g.phys_y].reshape(-1))
    after = np.sort(nxt.pops[:, g.phys_x, g.phys_y].reshape(-1))
    assert np.array_equal(before, after)


def test_propagate_region_must_be_physical(d2q9):
    g, prv, nxt = make_pair(d2q9)
    with pytest.raises(ContractViolation):
        propagate(prv, nxt, d2q9, (slice(0, g.NX), g.phys_y))


# --------------------------------------------------------------------- bc --

def test_bc_wall_moments(d2q37):
    g, prv, _ = make_pair(d2q37, 8, 10)
    prv.pops[...] = random_state(g, d2q37, seed=3)
    params = PhysicsParams(tau=1.0, Twall_top=0.6, Twall_bot=0.8)
    interior_before = prv.pops[:, g.phys_x, g.Hy + 3:g.Hy + g.Ly - 3].copy()
    mass_top_before = prv.pops[:, g.phys_x, g.Hy + g.Ly - 3:g.Hy + g.Ly].sum()
    bc(prv, params, d2q37)
    top = prv.pops[:, g.phys_x, g.Hy + g.Ly - 3:g.Hy + g.Ly]
    bot = prv.pops[:, g.phys_x, g.Hy:g.Hy + 3]
    for block, Twall in ((top, 0.6), (bot, 0.8)):
        _, ux, uy, T = moments(block, d2q37)
        assert np.max(np.abs(ux)) < 1e-14
        assert np.max(np.abs(uy)) < 1e-14
        assert np.max(np.abs(T - Twall)) < 1e-12
    # interior untouched bit-exact; wall-row mass conserved
    assert np.array_equal(
        prv.pops[:, g.phys_x, g.Hy + 3:g.Hy + g.Ly - 3], interior_before)
    assert top.sum() == pytest.approx(mass_top_before, rel=1e-13)


# ------------------------------------------------------------------ collide --

def test_collide_fixed_point(d2q37):
    params = PhysicsParams(tau=0.9)
    rho = np.full((3,), 1.1)
    feq = equilibrium(rho, np.full((3,), 0.02), np.zeros(3),
                      np.full((3,), d2q37.cs2), d2q37)
    out = collide(feq, params, d2q37)
    assert np.allclose(out, feq, rtol=1e-12, atol=1e-15)


def test_collide_conserves_mass_momentum(d2q37):
    params = PhysicsParams(tau=0.7)
    rng = np.random.default_rng(11)
    f = 0.2 + rng.random((37, 5))
    out = collide(f, params, d2q37)
    c = d2q37.c.astype(float)
    for j in range(5):
        assert out[:, j].sum() == pytest.approx(f[:, j].sum(), rel=1e-12)
        for axis in (0, 1):
            assert (c[:, axis] * out[:, j]).sum() == pytest.approx(
                (c[:, axis] * f[:, j]).sum(), rel=1e-10, abs=1e-12)


def test_collide_infinite_tau_limit(d2q9):
    params = PhysicsParams(tau=1e12)
    rng = np.random.default_rng(13)
    f = 0.2 + rng.random((9, 4))
    out = collide(f, params, d2q9)
    assert np.allclose(out, f, rtol=1e-11)


def test_collide_is_contraction(d2q37):
    # ||f' - feq|| = |1 - dt/tau| ||f - feq|| exactly (linearity of BGK)
    params = PhysicsParams(tau=0.8)
    rng = np.random.default_rng(17)
    f = 0.2 + rng.random((37, 6))
    rho, ux, uy, T = moments(f, d2q37)
    feq = equilibrium(rho, ux, uy, T, d2q37)
    out = collide(f, params, d2q37)
    lhs = np.linalg.norm(out - feq)
    rhs = abs(1 - 1 / 0.8) * np.linalg.norm(f - feq)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------- fused ----

def test_fused_matches_staged(d2q37):
    params = PhysicsParams(tau=0.8, gy=-1e-4)
    g, prv, nxt = make_pair(d2q37, 8, 8)
    prv.pops[...] = random_state(g, d2q37, seed=23)
    periodic_fill(prv)
    region = (slice(g.Hx + 1, g.Hx + 7), slice(g.Hy + 2, g.Hy + 6))
    staged = np.zeros_like(nxt.pops)
    ref = type(nxt)(g, "nxt")
    propagate(prv, ref, d2q37, region)
    xs, ys = region
    ref.pops[:, xs, ys] = collide(ref.pops[:, xs, ys], params, d2q37)
    propagate_collide_fused(prv, nxt, params, d2q37, region)
    assert np.array_equal(nxt.pops[:, xs, ys], ref.pops[:, xs, ys])


def test_fused_empty_region_is_noop(d2q9):
    params = PhysicsParams(tau=0.8)
    g, prv, nxt = make_pair(d2q9)
    before = nxt.pops.copy()
    propagate_collide_fused(prv, nxt, params, d2q9,
                            (slice(g.Hx, g.Hx), g.phys_y))
    assert np.array_equal(nxt.pops, before)


def test_fused_single_site(d2q9):
    params = PhysicsParams(tau=0.8)
    g, prv, nxt = make_pair(d2q9)
    prv.pops[...] = random_state(g, d2q9, seed=29)
    region = (slice(g.Hx + 2, g.Hx + 3), slice(g.Hy + 2, g.Hy + 3))
    propagate_collide_fused(prv, nxt, params, d2q9, region)
    gathered = np.array([
        [prv.pops[l, g.Hx + 2 - d2q9.c[l, 0], g.Hy + 2 - d2q9.c[l, 1]]]
        for l in range(9)])[:, :, None]
    want = collide(gathered, params, d2q9)
    assert np.array_equal(nxt.pops[:, g.Hx + 2, g.Hy + 2], want[:, 0, 0])


def test_fused_wall_rows_match_staged(d2q37):
    # a region straddling each wall range equals propagate -> bc -> collide
    params = PhysicsParams(tau=0.8, gy=-1e-4, Twall_top=0.6, Twall_bot=0.8)
    g, prv, nxt = make_pair(d2q37, 8, 10)
    prv.pops[...] = random_state(g, d2q37, seed=31)
    periodic_fill(prv)
    ref = type(nxt)(g, "nxt")
    propagate(prv, ref, d2q37)
    bc(ref, params, d2q37)
    walls = ((g.Hy, g.Hy + 3, params.Twall_bot),
             (g.Hy + g.Ly - 3, g.Hy + g.Ly, params.Twall_top))
    xs = slice(g.Hx + 1, g.Hx + 6)
    for ys in (slice(g.Hy + 1, g.Hy + 5), slice(g.Hy + g.Ly - 4, g.Hy + g.Ly)):
        want = collide(ref.pops[:, xs, ys], params, d2q37)
        propagate_collide_fused(prv, nxt, params, d2q37, (xs, ys), walls)
        assert np.array_equal(nxt.pops[:, xs, ys], want)
