import functools
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from thermolb import io, native
from thermolb.geometry import MacroFields
from thermolb.io import write_macro_csv
from thermolb.runtime import bindable_cpus

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


# ------------------------------ chunked writer (x chunks on bound threads) --

@pytest.fixture(params=["compiled", "python"])
def formatter(request, monkeypatch):
    """write_macro_csv's formatter: the compiled tlb_csv_rows, or the Python
    rows it falls back to without the compiled library."""
    if request.param == "compiled":
        if native.load() is None:
            pytest.skip("no C compiler here: the compiled kernel is "
                        "unavailable")
    else:
        monkeypatch.setattr(native, "_lib", None)
    return request.param


def random_macro(Lx, Ly, seed=17):
    rng = np.random.default_rng(seed)
    return MacroFields(*(rng.integers(0, 2**64, (Lx, Ly), dtype=np.uint64)
                         .view(np.float64) for _ in range(4)))


def writer_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("write_macro_csv")]


def assert_writes_csv_writer_bytes(tmp_path, Lx, Ly=5):
    macro = random_macro(Lx, Ly)
    write_macro_csv(tmp_path / "new.csv", macro)
    csv_writer_macro(tmp_path / "ref.csv", macro)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())
    assert not writer_threads()


def process_workers():
    return max(1, len(bindable_cpus()))


@pytest.mark.parametrize("Lx", [1, 37])
def test_chunked_writer_matches_csv_writer(formatter, tmp_path, Lx):
    # one x, and a prime x extent whose last chunk is shorter
    assert_writes_csv_writer_bytes(tmp_path, Lx)


def test_chunked_writer_exact_multiple_of_the_chunk(formatter, tmp_path):
    Lx = 3 * io._CHUNKS_PER_WORKER * process_workers()
    assert {x1 - x0 for x0, x1 in io._x_chunks(Lx, process_workers())} == {3}
    assert_writes_csv_writer_bytes(tmp_path, Lx)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs thread CPU affinity")
@pytest.mark.parametrize("Lx", [3, 40])
def test_chunked_writer_eight_cpus_on_offer(formatter, tmp_path, monkeypatch,
                                            Lx):
    # more threads than cores, switching often: one thread per CPU, or per
    # x when there are fewer x (one x a chunk); binding to a CPU the
    # process does not have fails, and that thread stays unbound
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    bound = []
    bind = io.bind_thread

    def recorded(cpus, k):
        bound.append(k)
        bind(cpus, k)

    monkeypatch.setattr(io, "bind_thread", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert_writes_csv_writer_bytes(tmp_path, Lx)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(bound) == list(range(min(8, Lx)))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs thread CPU affinity")
def test_chunked_writer_on_one_cpu(formatter, tmp_path):
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        assert_writes_csv_writer_bytes(tmp_path, 37)
    finally:
        os.sched_setaffinity(0, cpus)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least two CPUs to bind threads to")
def test_chunked_writer_threads_bound_to_their_own_cpus(tmp_path,
                                                        monkeypatch):
    cpus = sorted(os.sched_getaffinity(0))
    seen = {}
    bind = io.bind_thread

    def recorded(cpus, k):
        bind(cpus, k)
        seen[k] = os.sched_getaffinity(0)

    monkeypatch.setattr(io, "bind_thread", recorded)
    write_macro_csv(tmp_path / "m.csv", random_macro(40, 3))
    assert seen == {k: {cpus[k]} for k in range(len(cpus))}
    assert os.sched_getaffinity(0) == set(cpus)


class ChunkFailed(Exception):
    pass


def test_chunked_writer_raises_a_chunk_error_after_its_threads_stop(
        formatter, tmp_path, monkeypatch):
    # the first chunk fails at once while the others take a while: the
    # caller gets that exception, and no writer thread outlives the call
    failure = ChunkFailed("chunk 0")

    def slow_or_failing(rows, x0, x1):
        if x0 == 0:
            raise failure
        time.sleep(0.05)
        return rows(x0, x1)

    if formatter == "compiled":
        csv_rows = native.csv_rows
        monkeypatch.setattr(native, "csv_rows", lambda fields: (
            functools.partial(slow_or_failing, csv_rows(fields))))
    else:
        python_rows = io._python_rows
        monkeypatch.setattr(io, "_python_rows", lambda fields, x0, x1: (
            slow_or_failing(functools.partial(python_rows, fields), x0, x1)))
    with pytest.raises(ChunkFailed) as raised:
        write_macro_csv(tmp_path / "m.csv", random_macro(37, 5))
    assert raised.value is failure
    assert not writer_threads()


def test_chunked_writer_memory_bounded_by_the_chunks(compiled, tmp_path,
                                                     monkeypatch):
    # at most two chunks per thread in flight, of a sixteenth of the x range
    # per thread: on up to four threads the peak stays far below the file,
    # which holding every chunk at once would exceed
    monkeypatch.setattr(io, "bindable_cpus", lambda: bindable_cpus()[:4])
    macro = random_macro(256, 256)
    tracemalloc.start()
    try:
        write_macro_csv(tmp_path / "m.csv", macro)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "m.csv").stat().st_size
    assert peak < size / 3, (peak, size)
