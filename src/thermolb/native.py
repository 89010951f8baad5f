"""The compiled kernels (fused.c): built on first use, loaded with ctypes.

Four entry points: tlb_fused, the step (through Plan); tlb_equilibrium and
tlb_moments, the whole-array forms of kernels.equilibrium and
kernels.moments (through equilibrium and moments below); tlb_csv_rows, the
snapshot CSV's rows of an x range with each float as the bytes of its repr
(through csv_rows below, for io.write_macro_csv).

The shared library is compiled once per machine with the system C compiler
into ``$XDG_CACHE_HOME/thermolb`` (default ``~/.cache/thermolb``).  Its file
name carries the sha256 of the C source, the compiler flags, the compiler
version and the CPU flags, so a changed source, compiler or machine gets its
own build.  There is no install-time build step and no dependency beyond the
standard library.

The library is resolved once per process, on the first kernel call; that
includes the equilibrium that builds a run's initial state, so a zero-step
run loads it too.  When anything on the way fails (no compiler, a failed
compile, an unwritable cache directory, a failed dlopen) the handle resolves
to None and the kernels run their numpy reference path, which gives the same
bits.
"""

import ctypes
import functools
import hashlib
import math
import os
import shutil
import subprocess
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("fused.c")
# No fast-math, and -ffp-contract=off forbids fusing a multiply and an add
# into one FMA: every operation then rounds exactly as the numpy expression
# it mirrors, which is what keeps the compiled path bit-identical.
CFLAGS = ("-O3", "-march=native", "-std=c99", "-ffp-contract=off",
          "-fPIC", "-shared")

_UNRESOLVED = object()
_lib = _UNRESOLVED      # the loaded ctypes.CDLL, or None when unavailable
_lock = threading.Lock()


class _Model(ctypes.Structure):
    """Mirror of tlb_model in fused.c."""

    _fields_ = [("Q", ctypes.c_int), ("order", ctypes.c_int),
                ("c", ctypes.c_void_p), ("w", ctypes.c_void_p),
                ("opp", ctypes.c_void_p), ("nshell", ctypes.c_int),
                ("lead", ctypes.c_void_p), ("shell_end", ctypes.c_void_p),
                ("cs2", ctypes.c_double),
                ("shift_u", ctypes.c_double), ("shift_v", ctypes.c_double),
                ("shift_T", ctypes.c_double), ("omega", ctypes.c_double)]


def _compiler():
    return shutil.which("gcc")


def _cpu_flags():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return line.strip()
    except OSError:
        pass
    return ""


def cache_dir():
    """Directory the compiled library is cached in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "thermolb"


def _build_and_load():
    cc = _compiler()
    if cc is None:
        return None
    try:
        version = subprocess.run([cc, "-dumpfullversion"], check=True,
                                 capture_output=True, text=True,
                                 timeout=60).stdout.strip()
        key = hashlib.sha256("\0".join(
            [SOURCE.read_text(), " ".join(CFLAGS), version, _cpu_flags()]
        ).encode()).hexdigest()[:16]
        target = cache_dir() / f"fused-{key}.so"
        if not target.is_file():
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
            try:
                subprocess.run([cc, *CFLAGS, "-o", str(tmp), str(SOURCE), "-lm"],
                               check=True, capture_output=True, timeout=300)
                os.replace(tmp, target)
            finally:
                tmp.unlink(missing_ok=True)
        lib = ctypes.CDLL(str(target))
    except (OSError, subprocess.SubprocessError):
        return None
    ptr = ctypes.c_void_p
    lib.tlb_fused.argtypes = [ptr, ptr, ptr, ptr, ctypes.c_int, ctypes.c_int,
                              ptr, ptr, ptr, ctypes.POINTER(_Model),
                              ctypes.POINTER(ctypes.c_int64)]
    lib.tlb_fused.restype = ctypes.c_int
    model = ctypes.POINTER(_Model)
    lib.tlb_equilibrium.argtypes = [ptr, ptr, ptr, ptr, ctypes.c_int64, model,
                                    ptr]
    lib.tlb_equilibrium.restype = None
    lib.tlb_moments.argtypes = [ptr, ptr, ctypes.c_int64, ctypes.c_int64,
                                model, ptr, ptr, ptr, ptr]
    lib.tlb_moments.restype = ctypes.c_int
    lib.tlb_csv_rows.argtypes = [ptr, ptr, ptr, ptr, ctypes.c_int64,
                                 ctypes.c_int64, ctypes.c_int64, ptr, ptr]
    lib.tlb_csv_rows.restype = ctypes.c_int64
    return lib


def load():
    """The compiled library, built and loaded on the first call; None when
    it is unavailable."""
    global _lib
    if _lib is _UNRESOLVED:
        with _lock:
            if _lib is _UNRESOLVED:
                _lib = _build_and_load()
    return _lib


def kernel_path():
    """"native" when the compiled kernel runs, "numpy" otherwise."""
    return "numpy" if load() is None else "native"


def _element_strides(a):
    return [s // a.itemsize for s in a.strides]


@functools.lru_cache(maxsize=8)
def _opposites(hops):
    """tlb_model.opp of the (Q, 2) int64 hops whose bytes are hops: the
    index of each hop's negation (the rest hop is its own).  Cached, since
    _model runs on every whole-array call."""
    c = np.frombuffer(hops, dtype=np.int64).reshape(-1, 2).tolist()
    index = {(cx, cy): l for l, (cx, cy) in enumerate(c)}
    opp = np.array([index[-cx, -cy] for cx, cy in c], dtype=np.intc)
    opp.setflags(write=False)
    return opp


@functools.lru_cache(maxsize=8)
def _shells(hops):
    """tlb_model's shell table of the (Q, 2) int64 hops whose bytes are
    hops: the lead populations l <= opp[l] grouped by shell of equal |c|^2,
    shells in increasing |c|^2 and leads in increasing l, and the end of
    each shell's leads in that list."""
    c = np.frombuffer(hops, dtype=np.int64).reshape(-1, 2)
    opp = _opposites(hops)
    norm = (c * c).sum(axis=1)
    lead, end = [], []
    for n in np.unique(norm):
        lead += [l for l in np.flatnonzero(norm == n) if l <= opp[l]]
        end.append(len(lead))
    table = (np.array(lead, dtype=np.intc), np.array(end, dtype=np.intc))
    for a in table:
        a.setflags(write=False)
    return table


def shells(vs):
    """The shells of vs as kernels.equilibrium and tlb_fused take them: one
    list of (l, opp[l]) pairs per shell of equal |c|^2, in increasing
    |c|^2, with l <= opp[l] in increasing l (the rest hop is its own
    opposite)."""
    hops = np.ascontiguousarray(vs.c, dtype=np.int64).tobytes()
    lead, end = _shells(hops)
    opp = _opposites(hops)
    return [[(int(l), int(opp[l])) for l in lead[a:b]]
            for a, b in zip([0, *end[:-1]], end)]


def _model(vs, order, params=None):
    """A pointer to the tlb_model of vs at Hermite order.

    params gives the force shift and the relaxation rate; without it they
    are zero, which tlb_equilibrium and tlb_moments never read.  The pointer
    keeps the arrays it points into alive.
    """
    c = np.ascontiguousarray(vs.c, dtype=np.int64)
    w = np.ascontiguousarray(vs.w, dtype=np.float64)
    hops = c.tobytes()
    opp = _opposites(hops)
    lead, shell_end = _shells(hops)
    terms = (0.0, 0.0, 0.0, 0.0)
    if params is not None:
        g2 = params.gx * params.gx + params.gy * params.gy
        terms = (params.tau * params.gx, params.tau * params.gy,
                 params.tau * params.tau * g2 / 2, 1.0 / params.tau)
    model = ctypes.pointer(_Model(vs.Q, int(order), c.ctypes.data,
                                  w.ctypes.data, opp.ctypes.data,
                                  len(shell_end), lead.ctypes.data,
                                  shell_end.ctypes.data, vs.cs2, *terms))
    model.arrays = (c, w, opp, lead, shell_end)
    return model


def _float64_sites(arrays):
    """True when arrays are float64 ndarrays of one shape with at least one
    dimension, which is what the whole-array entry points take."""
    shape = np.shape(arrays[0])
    return len(shape) >= 1 and all(
        isinstance(a, np.ndarray) and a.dtype == np.float64
        and a.shape == shape for a in arrays)


def equilibrium(rho, ux, uy, T, vs, order):
    """tlb_equilibrium: a new (Q,) + rho.shape array, or None when the library
    is unavailable or the inputs are not float64 arrays of one shape with at
    least one dimension.  order must be 2, 3 or 4."""
    lib = load()
    if lib is None or not _float64_sites((rho, ux, uy, T)):
        return None
    rho, ux, uy, T = (np.ascontiguousarray(a) for a in (rho, ux, uy, T))
    out = np.empty((vs.Q,) + rho.shape)
    lib.tlb_equilibrium(rho.ctypes.data, ux.ctypes.data, uy.ctypes.data,
                        T.ctypes.data, rho.size, _model(vs, order),
                        out.ctypes.data)
    return out


def moments(f, vs):
    """tlb_moments: (rho, ux, uy, T) of a (Q, ...) population block, or None
    when the library is unavailable, f is not a float64 array of Q
    populations with at least one site dimension, or some density is not
    > 0.  The block is read in place through its strides."""
    lib = load()
    if (lib is None or not _float64_sites((f,)) or f.ndim < 2
            or f.shape[0] != vs.Q):
        return None
    sites = f.shape[1:]
    # (Q, x, y) with y the last site dimension: a view unless the leading
    # site dimensions cannot be merged
    block = f.reshape(vs.Q, math.prod(sites[:-1]), sites[-1])
    if any(s % block.itemsize for s in block.strides):
        block = np.ascontiguousarray(block)
    out = [np.empty(sites) for _ in range(4)]
    status = lib.tlb_moments(block.ctypes.data,
                             (ctypes.c_int64 * 3)(*_element_strides(block)),
                             *block.shape[1:], _model(vs, vs.eq_order),
                             *[a.ctypes.data for a in out])
    return tuple(out) if status == 0 else None


class Plan:
    """tlb_fused's arguments for one pair of buffers, built once.

    A plan holds the model struct, the data pointers and element strides of
    both buffers (for either direction of the prv/nxt swap), the wall rows,
    each axis's pull range and wrap, a cache of box arrays keyed by region
    bounds, and a reference to every array those point into.  It serves
    only the buffers, params, velocity set, walls and wrap it was built
    from (see serves); a rank builds one when it is built and passes it to
    every kernel call.
    """

    def __init__(self, prv, nxt, params, vs, walls, wrap=(False, False)):
        self.params, self.vs, self.walls, self.wrap = params, vs, walls, wrap
        self.buffers = pops = (prv.pops, nxt.pops)
        self._boxes = {}
        self._args = None          # None: the kernel cannot take these buffers
        order = vs.eq_order if params.eq_order is None else params.eq_order
        geom = prv.geom
        # Every pull reads at most max_hop sites outside the physical region,
        # and a wrapped one is shifted by the tile's extent only once.
        if (order not in (2, 3, 4) or min(geom.Hx, geom.Hy) < vs.max_hop
                or any(w and n < vs.max_hop
                       for w, n in zip(wrap, (geom.Lx, geom.Ly)))
                or any(p.dtype != np.float64 or not p.flags.writeable
                       or p.shape != (vs.Q, geom.NX, geom.NY)
                       or any(s % 8 for s in p.strides) for p in pops)):
            return
        self._model = _model(vs, order, params)
        self._nwall = len(walls)
        self._wrows = (ctypes.c_int64 * (2 * len(walls) or 1))(
            *[r for lo, hi, *_ in walls for r in (lo, hi)])
        self._wT = (ctypes.c_double * (len(walls) or 1))(
            *[T for _, _, T, _ in walls])
        self._pull = (ctypes.c_int64 * 6)(*[
            v for (lo, hi), w in zip(geom.pull_ranges(walls, wrap), wrap)
            for v in (lo, hi, w)])

        def direction(src, dst):
            return (ctypes.c_void_p(src.ctypes.data),
                    ctypes.c_void_p(dst.ctypes.data),
                    (ctypes.c_int64 * 6)(*_element_strides(src),
                                         *_element_strides(dst)))

        # indexed by "prv is the second buffer", i.e. after an odd swap
        self._args = (direction(*pops), direction(*pops[::-1]))

    def serves(self, prv, nxt, params, vs, walls, wrap=(False, False)):
        """True when prv and nxt are this plan's buffers, in either order,
        params, vs and walls are the objects it was built from, and wrap
        equals its wrap."""
        a, b = self.buffers
        return (params is self.params and vs is self.vs
                and walls is self.walls and wrap == self.wrap
                and ((prv.pops is a and nxt.pops is b)
                     or (prv.pops is b and nxt.pops is a)))

    def run(self, prv, nxt, boxes):
        """Run tlb_fused over boxes, a list of non-empty physical (xs, ys)
        slice pairs, on buffers this plan serves.

        Returns the number of negative values written, or None when the
        library is unavailable, the kernel cannot take these buffers or it
        returned a nonzero status.  The caller then runs the numpy path on
        the boxes.
        """
        lib = load()
        if lib is None or self._args is None:
            return None
        src, dst, strides = self._args[prv.pops is self.buffers[1]]
        key = tuple((xs.start, xs.stop, ys.start, ys.stop) for xs, ys in boxes)
        box = self._boxes.get(key)
        if box is None:
            box = self._boxes[key] = (ctypes.c_int64 * (4 * len(key)))(
                *[v for bounds in key for v in bounds])
        negatives = ctypes.c_int64()
        status = lib.tlb_fused(src, dst, strides, box, len(key), self._nwall,
                               self._wrows, self._wT, self._pull,
                               self._model, ctypes.byref(negatives))
        return negatives.value if status == 0 else None


def _pow5_words():
    """tlb_csv_rows' 128-bit multipliers, from exact integer arithmetic, as
    (low, high) 64-bit word pairs: for i < 342 the inverse
    floor(2**(b - 1 + 125) / 5**i) + 1, with b the bit length of 5**i, then
    for i < 326 5**i scaled to 125 bits, truncated when it has more."""
    values = []
    for i in range(342):
        p = 5 ** i
        values.append((1 << (p.bit_length() - 1 + 125)) // p + 1)
    for i in range(326):
        p = 5 ** i
        shift = p.bit_length() - 125
        values.append(p >> shift if shift >= 0 else p << -shift)
    mask = (1 << 64) - 1
    return np.array([w for v in values for w in (v & mask, v >> 64)],
                    dtype=np.uint64)


_POW5 = _pow5_words()

# The longest row tlb_csv_rows writes: two integers of at most 20 bytes,
# four floats of at most 24, five commas and "\r\n".
CSV_MAX_ROW = 2 * 20 + 4 * 24 + 5 + 2


def csv_rows(fields):
    """tlb_csv_rows over fields, the four (Lx, Ly) float64 arrays rho, ux, uy
    and T: a function rows(x0, x1=x0 + 1) that returns the CSV rows of
    x0 <= x < x1 as a memoryview of a buffer of its own, of
    (x1 - x0) * Ly * CSV_MAX_ROW bytes, so that chunks formatted at once on
    several threads do not share one.  None when the library is unavailable
    or the fields are not C-contiguous float64 arrays of one 2-d shape."""
    lib = load()
    shape = np.shape(fields[0])
    if (lib is None or len(shape) != 2 or not _float64_sites(fields)
            or not all(a.flags.c_contiguous for a in fields)):
        return None
    Ly = shape[1]
    data = [a.ctypes.data for a in fields]
    tables = _POW5.ctypes.data

    def rows(x0, x1=None):
        x1 = x0 + 1 if x1 is None else x1
        buf = np.empty((x1 - x0) * Ly * CSV_MAX_ROW, dtype=np.uint8)
        return memoryview(buf)[:lib.tlb_csv_rows(*data, Ly, x0, x1, tables,
                                                 buf.ctypes.data)]
    rows.fields = fields    # keeps the arrays behind data alive
    return rows
