"""The compiled fused kernel (fused.c): built on first use, loaded with ctypes.

The shared library is compiled once per machine with the system C compiler
into ``$XDG_CACHE_HOME/thermolb`` (default ``~/.cache/thermolb``).  Its file
name carries the sha256 of the C source, the compiler flags, the compiler
version and the CPU flags, so a changed source, compiler or machine gets its
own build.  There is no install-time build step and no dependency beyond the
standard library.

The library is resolved once per process, on the first kernel call.  When
anything on the way fails (no compiler, a failed compile, an unwritable cache
directory, a failed dlopen) the handle resolves to None and the kernels run
their numpy reference path, which gives the same bits.
"""

import ctypes
import hashlib
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
                ("cs2", ctypes.c_double), ("shift_u", ctypes.c_double),
                ("shift_v", ctypes.c_double), ("shift_T", ctypes.c_double),
                ("omega", ctypes.c_double)]


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
                              ptr, ptr, ctypes.POINTER(_Model),
                              ctypes.POINTER(ctypes.c_int64)]
    lib.tlb_fused.restype = ctypes.c_int
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


class Plan:
    """tlb_fused's arguments for one pair of buffers, built once.

    A plan holds the model struct, the data pointers and element strides of
    both buffers (for either direction of the prv/nxt swap), the wall rows
    and a cache of box arrays keyed by region bounds, plus a reference to
    every array those point into.  It serves only the buffers, params,
    velocity set and walls it was built from (see serves); a rank builds one
    on its first step and passes it to every kernel call.
    """

    def __init__(self, prv, nxt, params, vs, walls):
        self.params, self.vs, self.walls = params, vs, walls
        self.buffers = (prv.data, nxt.data)
        self._boxes = {}
        self._args = None          # None: the kernel cannot take these buffers
        order = vs.eq_order if params.eq_order is None else params.eq_order
        geom = prv.geom
        pops = (prv.pops, nxt.pops)
        # Every pull reads at most max_hop sites outside the physical region.
        if (order not in (2, 3, 4) or min(geom.Hx, geom.Hy) < vs.max_hop
                or any(p.dtype != np.float64 or not p.flags.writeable
                       or p.shape != (vs.Q, geom.NX, geom.NY)
                       or any(s % 8 for s in p.strides) for p in pops)):
            return
        self._c = np.ascontiguousarray(vs.c, dtype=np.int64)
        self._w = np.ascontiguousarray(vs.w, dtype=np.float64)
        g2 = params.gx * params.gx + params.gy * params.gy
        self._model = ctypes.pointer(_Model(
            vs.Q, int(order), self._c.ctypes.data, self._w.ctypes.data,
            vs.cs2, params.tau * params.gx, params.tau * params.gy,
            params.tau * params.tau * g2 / params.D, params.dt / params.tau))
        self._nwall = len(walls)
        self._wrows = (ctypes.c_int64 * (2 * len(walls) or 1))(
            *[r for lo, hi, _ in walls for r in (lo, hi)])
        self._wT = (ctypes.c_double * (len(walls) or 1))(
            *[T for _, _, T in walls])

        def direction(src, dst):
            return (ctypes.c_void_p(src.ctypes.data),
                    ctypes.c_void_p(dst.ctypes.data),
                    (ctypes.c_int64 * 6)(*_element_strides(src),
                                         *_element_strides(dst)))

        # indexed by "prv is the second buffer", i.e. after an odd swap
        self._args = (direction(*pops), direction(*pops[::-1]))

    def serves(self, prv, nxt, params, vs, walls):
        """True when prv and nxt are this plan's buffers, in either order,
        and params, vs and walls are the objects it was built from."""
        a, b = self.buffers
        return (params is self.params and vs is self.vs
                and walls is self.walls
                and ((prv.data is a and nxt.data is b)
                     or (prv.data is b and nxt.data is a)))

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
        src, dst, strides = self._args[prv.data is self.buffers[1]]
        key = tuple((xs.start, xs.stop, ys.start, ys.stop) for xs, ys in boxes)
        box = self._boxes.get(key)
        if box is None:
            box = self._boxes[key] = (ctypes.c_int64 * (4 * len(key)))(
                *[v for bounds in key for v in bounds])
        negatives = ctypes.c_int64()
        status = lib.tlb_fused(src, dst, strides, box, len(key), self._nwall,
                               self._wrows, self._wT, self._model,
                               ctypes.byref(negatives))
        return negatives.value if status == 0 else None


def fused(prv, nxt, params, vs, xs, ys, walls):
    """Run tlb_fused on one physical region with a throwaway plan.

    Returns the number of negative values written, or None when the
    compiled kernel did not do the region (see Plan.run).
    """
    return Plan(prv, nxt, params, vs, walls).run(prv, nxt, [(xs, ys)])
