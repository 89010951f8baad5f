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
    lib.tlb_fused.argtypes = [ptr, ptr, ptr, ptr, ctypes.c_int, ptr, ptr,
                              ctypes.POINTER(_Model)]
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


def fused(prv, nxt, params, vs, xs, ys, walls):
    """Run fused.c's tlb_fused on one physical region.

    Returns True when the compiled kernel did the whole region; False when
    the library is unavailable, a precondition for passing pointers fails,
    or the kernel returned a nonzero status.  The caller then runs the numpy
    path on the region.
    """
    lib = load()
    if lib is None:
        return False
    order = vs.eq_order if params.eq_order is None else params.eq_order
    src, dst = prv.pops, nxt.pops
    geom = prv.geom
    # Every pull reads at most max_hop sites outside the physical region.
    if (order not in (2, 3, 4) or src.dtype != np.float64
            or dst.dtype != np.float64 or not dst.flags.writeable
            or src.shape != (vs.Q, geom.NX, geom.NY) or dst.shape != src.shape
            or min(geom.Hx, geom.Hy) < vs.max_hop
            or any(s % 8 for s in src.strides + dst.strides)):
        return False
    c = np.ascontiguousarray(vs.c, dtype=np.int64)
    w = np.ascontiguousarray(vs.w, dtype=np.float64)
    g2 = params.gx * params.gx + params.gy * params.gy
    model = _Model(vs.Q, int(order), c.ctypes.data, w.ctypes.data, vs.cs2,
                   params.tau * params.gx, params.tau * params.gy,
                   params.tau * params.tau * g2 / params.D,
                   params.dt / params.tau)
    strides = (ctypes.c_int64 * 6)(*_element_strides(src),
                                   *_element_strides(dst))
    box = (ctypes.c_int64 * 4)(xs.start, xs.stop, ys.start, ys.stop)
    wrows = (ctypes.c_int64 * (2 * len(walls) or 1))(
        *[r for lo, hi, _ in walls for r in (lo, hi)])
    wT = (ctypes.c_double * (len(walls) or 1))(*[T for _, _, T in walls])
    status = lib.tlb_fused(src.ctypes.data, dst.ctypes.data, strides, box,
                           len(walls), wrows, wT, ctypes.byref(model))
    return status == 0
