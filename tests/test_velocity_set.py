import hashlib

import numpy as np
import pytest

from thermolb import build_velocity_set
from thermolb.errors import ConfigurationError
from thermolb.velocity_set import _solve_d2q37_weights, gaussian_moment


def brute_moment(vs, a, b):
    c = vs.c.astype(float)
    return float(np.sum(vs.w * c[:, 0] ** a * c[:, 1] ** b))


def test_d2q37_counts(d2q37):
    assert d2q37.Q == 37
    assert d2q37.max_hop == 3
    assert len({tuple(v) for v in d2q37.c}) == 37


def test_d2q9_basics(d2q9):
    assert d2q9.Q == 9
    assert d2q9.max_hop == 1
    assert tuple(d2q9.c[0]) == (0, 0)
    assert abs(d2q9.w.sum() - 1.0) < 1e-15
    assert d2q9.cs2 == pytest.approx(1 / 3)


@pytest.mark.parametrize("name", ["D2Q37", "D2Q9"])
def test_closed_under_negation(name):
    vs = build_velocity_set(name)
    vecs = {tuple(v) for v in vs.c}
    for cx, cy in vecs:
        assert (-cx, -cy) in vecs


@pytest.mark.parametrize("name", ["D2Q37", "D2Q9"])
def test_weights_positive_and_normalized(name):
    vs = build_velocity_set(name)
    assert np.all(vs.w > 0)
    assert abs(vs.w.sum() - 1.0) < 1e-14


def test_d2q37_odd_moments_vanish(d2q37):
    for a in range(6):
        for b in range(6 - a):
            if (a % 2) or (b % 2):
                assert abs(brute_moment(d2q37, a, b)) < 1e-12, (a, b)


def test_d2q37_even_moments_gaussian(d2q37):
    # Isotropic even moments through order 8 match the Gaussian of variance cs2.
    for a in range(0, 9, 2):
        for b in range(0, 9 - a, 2):
            expect = gaussian_moment(a, b, d2q37.cs2)
            assert abs(brute_moment(d2q37, a, b) - expect) < 1e-12, (a, b)


def test_d2q37_isotropic_fourth_moment(d2q37):
    # Sum_l w_l cx^2 cy^2 = cs2^2, the cross fourth moment of the Gaussian.
    assert brute_moment(d2q37, 2, 2) == pytest.approx(d2q37.cs2 ** 2, abs=1e-13)


def test_d2q9_second_moment(d2q9):
    assert brute_moment(d2q9, 2, 0) == pytest.approx(d2q9.cs2, abs=1e-15)
    assert brute_moment(d2q9, 3, 1) == pytest.approx(0.0, abs=1e-15)


def test_unknown_name_rejected():
    with pytest.raises(ConfigurationError):
        build_velocity_set("D3Q19")


def test_velocity_lookup(d2q37):
    l = d2q37.find(3, 1)
    assert tuple(d2q37.c[l]) == (3, 1)
    with pytest.raises(ConfigurationError):
        d2q37.find(4, 0)


def test_d2q37_weight_solve_bits_are_pinned():
    # the lazy grid scan finds the same bracket, so the same weights and cs2
    w, cs2 = _solve_d2q37_weights()
    assert cs2.hex() == "0x1.655a23486b0efp-1"
    assert hashlib.sha256(w.tobytes()).hexdigest() == (
        "5c7259d37f6d1417e3a374efc57ec72815eca697518e26c142f5aaa39b5a101e")
