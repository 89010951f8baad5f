import numpy as np

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
