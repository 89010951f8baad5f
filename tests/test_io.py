import numpy as np
import pytest

from thermolb import native
from thermolb.geometry import MacroFields
from thermolb.io import write_macro_csv

from conftest import csv_writer_macro

# Values whose repr takes each of its forms: signed zero, short and long
# decimals, exponents both ways, the smallest subnormal, inf and nan.
AWKWARD = [-0.0, 0.1, 1e-05, 1e16, 5e-324, 1.0, float("inf"), float("nan")]


def test_write_macro_csv_matches_csv_writer_bytes(tmp_path):
    values = np.array(AWKWARD)
    fields = [values[(np.arange(15) + k) % len(values)].reshape(3, 5)
              for k in range(4)]        # non-square; each field shifted
    macro = MacroFields(*fields)
    write_macro_csv(tmp_path / "new.csv", macro)
    csv_writer_macro(tmp_path / "ref.csv", macro)
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert got.count(b"\r\n") == 1 + 3 * 5
    for text in (b"-0.0", b"1e-05", b"1e+16", b"5e-324", b"inf", b"nan"):
        assert text in got


def test_write_macro_csv_matches_csv_writer_on_random_fields(tmp_path):
    rng = np.random.default_rng(7)
    macro = MacroFields(*(rng.standard_normal((6, 4))
                          * 10.0 ** rng.integers(-30, 30, (6, 4))
                          for _ in range(4)))
    write_macro_csv(tmp_path / "new.csv", macro)
    csv_writer_macro(tmp_path / "ref.csv", macro)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


# -------------------------------------------- compiled repr (tlb_csv_rows) --

def assert_rows_are_repr(values, Ly=1000):
    """values, padded with 1.0 to whole rows of 4 fields, through
    native.csv_rows, give the rows of csv.writer over their reprs."""
    values = np.asarray(values, dtype=np.float64).ravel()
    Ly = max(1, min(Ly, -(-values.size // 4)))
    values = np.concatenate([values, np.ones(-values.size % (4 * Ly))])
    fields = list(values.reshape(4, -1, Ly))
    rows = native.csv_rows(fields)
    for x in range(fields[0].shape[0]):
        cells = [a[x].tolist() for a in fields]
        want = "".join(f"{x},{y},{a!r},{b!r},{c!r},{d!r}\r\n"
                       for y, a, b, c, d in zip(range(Ly), *cells))
        got = bytes(rows(x)).decode()
        if got != want:
            for g, w, v in zip(got.split("\r\n"), want.split("\r\n"),
                               zip(*cells)):
                assert g == w, [float.hex(c) for c in v]
        assert got == want


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


def test_csv_rows_repr_random_bit_patterns(compiled):
    # every exponent, subnormals, both signs, infinities and NaN payloads
    bits = np.random.default_rng(11).integers(0, 2**64, 10**6,
                                              dtype=np.uint64)
    assert_rows_are_repr(bits.view(np.float64))


def test_csv_rows_repr_powers_of_two_and_neighbours(compiled):
    # below a power of two the next lower double is half as far away
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_rows_are_repr(np.concatenate([neighbours(powers),
                                         -neighbours(powers)]))


def test_csv_rows_repr_powers_of_ten_and_neighbours(compiled):
    tens = np.array([float(f"1e{k}") for k in range(-324, 309)])
    assert_rows_are_repr(np.concatenate([neighbours(tens), -neighbours(tens)]))


def test_csv_rows_repr_notation_thresholds(compiled):
    # repr switches to an exponent below 1e-4 and from 1e16 on
    near = []
    for edge in (1e-4, 1e16, 9.999999999999999e-05, 9999999999999998.0):
        lo = hi = edge
        for _ in range(16):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
            near += [lo, hi]
        near.append(edge)
    near += [k * 10.0 ** e for e in (-5, -4, 15, 16) for k in range(1, 100)]
    assert_rows_are_repr(np.concatenate([near, np.negative(near)]))


def test_csv_rows_repr_integers_zeros_and_extremes(compiled):
    rng = np.random.default_rng(12)
    big = 2**53
    ints = [*range(10**5), *range(big - 100, big + 1),
            *rng.integers(0, big, 10**5, dtype=np.int64).tolist(),
            *(10**k + d for k in range(16) for d in (-1, 0, 1))]
    info = np.finfo(np.float64)
    special = [0.0, -0.0, float(info.max), -float(info.max),
               float(info.smallest_normal), float(info.smallest_subnormal),
               -float(info.smallest_subnormal), np.inf, -np.inf, np.nan,
               -np.nan, np.uint64(0x7ff0000000000001).view(np.float64),
               np.uint64(0xfff8000000000123).view(np.float64)]
    assert_rows_are_repr(np.concatenate([np.array(ints, dtype=np.float64),
                                         special]))


def test_csv_rows_repr_property(compiled):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=40))
    def check(values):
        assert_rows_are_repr(values, Ly=7)
    check()


def test_write_macro_csv_compiled_matches_python_writer(compiled, tmp_path,
                                                        monkeypatch):
    # strided, transposed and float32 fields are made contiguous float64
    rng = np.random.default_rng(13)

    def bits(shape):
        return rng.integers(0, 2**64, shape, dtype=np.uint64).view(np.float64)

    macro = MacroFields(bits((9, 14))[:, ::2], bits((9, 7)), bits((7, 9)).T,
                        rng.standard_normal((9, 7)).astype(np.float32))
    assert native.csv_rows([np.ascontiguousarray(a, dtype=np.float64)
                            for a in vars(macro).values()]) is not None
    write_macro_csv(tmp_path / "compiled.csv", macro)
    monkeypatch.setattr(native, "_lib", None)
    write_macro_csv(tmp_path / "python.csv", macro)
    assert ((tmp_path / "compiled.csv").read_bytes()
            == (tmp_path / "python.csv").read_bytes())
