"""In-memory span recorder wrapped around thermolb's layer boundaries.

The program itself is not modified: `traced(recorder)` replaces, for the
duration of a `with` block, the kernel names `thermolb.runtime` imports from
`thermolb.kernels`, the `RankWorker` step and pack/unpack methods,
`Fabric.send`/`Fabric.recv` and the `thermolb.io.write_*` functions with
wrappers that record one span per call.  Everything is restored on exit.

A span is (name, start_ns, end_ns, parent index, thread key, detail).  The
thread key is the rank number on rank threads (set by the step wrapper) and
"main" on the coordinating thread.  A span's self time is its duration minus
the durations of its children on the same thread.
"""

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

KERNEL_NAMES = ("propagate", "collide", "bc", "propagate_collide_fused",
                "count_negative")
WORKER_METHODS = ("pack_x", "unpack_x", "pack_y", "unpack_y")
IO_NAMES = ("write_pgm", "write_macro_csv", "write_table",
            "write_bandwidth_table")


class SpanRecorder:
    """Collects spans from any thread into one in-memory list."""

    def __init__(self):
        self.spans = []
        self.t0 = time.perf_counter_ns()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.key = "main"
        return st

    def set_rank(self, rank):
        self._state().key = rank

    def _open(self):
        st = self._state()
        with self._lock:  # reserve the slot so children can point here
            idx = len(self.spans)
            self.spans.append(None)
        parent = st.stack[-1] if st.stack else None
        st.stack.append(idx)
        return st, idx, parent

    def _close(self, st, idx, parent, name, start, detail):
        end = time.perf_counter_ns()
        st.stack.pop()
        self.spans[idx] = (name, start, end, parent, st.key, detail)

    def wrap(self, name, fn, detail=None):
        """Return fn wrapped so that each call records a span called name.

        detail(args) -> small value stored with the span (a tag, a size).
        """
        rec = self

        def wrapper(*args, **kwargs):
            st, idx, parent = rec._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(st, idx, parent, name, start,
                           detail(args) if detail else None)

        return wrapper

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        st, idx, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(st, idx, parent, name, start, None)

    def self_times(self):
        """Self time (ns) of every span, children on the same thread removed."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            parent = s[3]
            if parent is not None and self.spans[parent][4] == s[4]:
                own[parent] -= s[2] - s[1]
        return own

    def chrome_trace(self, path):
        """Write the spans as Chrome Trace Event JSON, one track per thread."""
        tids = {}
        events = []
        for i, (name, start, end, parent, key, detail) in enumerate(self.spans):
            tid = tids.setdefault(key, len(tids))
            args = {"id": i, "parent": parent}
            if detail is not None:
                args["detail"] = detail
            events.append({"name": name, "cat": name.split(".")[0], "ph": "X",
                           "ts": (start - self.t0) / 1e3,
                           "dur": (end - start) / 1e3,
                           "pid": 1, "tid": tid, "args": args})
        for key, tid in tids.items():
            label = "coordinator" if key == "main" else f"rank {key}"
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": label}})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

    def self_time_table(self, steps):
        """Rows (thread, name, calls, self ms, self ms per step), largest
        first; thread is "ranks" (all rank threads) or "coordinator"."""
        own = self.self_times()
        calls = defaultdict(int)
        total = defaultdict(int)
        for s, t in zip(self.spans, own):
            key = ("coordinator" if s[4] == "main" else "ranks", s[0])
            calls[key] += 1
            total[key] += t
        rows = [(*key, calls[key], total[key] / 1e6,
                 total[key] / 1e6 / max(steps, 1)) for key in total]
        return sorted(rows, key=lambda r: (r[0], -r[3]))


def _payload_bytes(args):
    return int(args[5].nbytes)


@contextmanager
def traced(rec):
    """Install the span wrappers on thermolb's layer boundaries."""
    from thermolb import io as io_mod
    from thermolb import runtime
    from thermolb.runtime import Fabric, RankWorker

    saved = []

    def patch(owner, attr, wrapped):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    for name in KERNEL_NAMES:
        patch(runtime, name, rec.wrap(f"kernels.{name}", getattr(runtime, name)))
    for name in WORKER_METHODS:
        patch(RankWorker, name, rec.wrap(f"runtime.{name}",
                                         getattr(RankWorker, name)))
    step = RankWorker.step

    def ranked_step(worker, step_no):
        rec.set_rank(worker.tile.rank)
        return step(worker, step_no)

    patch(RankWorker, "step", rec.wrap("sim.step", ranked_step))
    patch(Fabric, "send", rec.wrap("runtime.Fabric.send", Fabric.send,
                                   detail=_payload_bytes))
    patch(Fabric, "recv", rec.wrap("runtime.Fabric.recv", Fabric.recv,
                                   detail=lambda args: args[3]))
    for name in IO_NAMES:
        patch(io_mod, name, rec.wrap(f"io.{name}", getattr(io_mod, name)))
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
