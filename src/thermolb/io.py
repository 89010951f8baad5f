"""Snapshot and table output, plus structured-text config loading."""

import collections
import csv
import functools
import os
import queue
import threading

import numpy as np
import yaml

from . import native
from .errors import ConfigurationError
from .geometry import MacroFields
from .runtime import bind_thread, bindable_cpus


def write_pgm(path, values):
    """8-bit binary PGM (P5) of a (Lx, Ly) scalar field, min-max normalized.

    Image rows run top to bottom, i.e. decreasing lattice y.
    """
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    img = np.flipud(((values - lo) / span * 255.0).round().astype(np.uint8).T)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


# The header as csv.writer writes it: no field needs quoting, and each row
# ends in "\r\n".
_MACRO_HEADER = (b"x [site],y [site],rho [lattice],ux [lattice],uy [lattice],"
                 b"T [lattice]\r\n")


def _python_rows(fields, x0, x1):
    """The rows of x0 <= x < x1 as write_macro_csv writes them, formatted in
    one Python pass of f-strings: the reference for native.csv_rows and its
    fallback."""
    Ly = fields[0].shape[1]
    return "".join([
        f"{x},{y},{rho!r},{ux!r},{uy!r},{T!r}\r\n"
        for x in range(x0, x1)
        for y, rho, ux, uy, T in zip(range(Ly), *(a[x].tolist()
                                                  for a in fields))
    ]).encode()


# x chunks per writer thread: the threads' shares then end close together,
# and the chunks in flight, at most two per thread, span about an eighth of
# the file's x range (2, 4, 8, 16 and 32 took the same time on a 256x256
# file, BENCH_parallel_csv.json)
_CHUNKS_PER_WORKER = 16


def _x_chunks(Lx, workers):
    """The [x0, x1) ranges, in order, that write_macro_csv formats on
    workers threads: _CHUNKS_PER_WORKER per thread, of equal size but the
    last, or one x each when Lx is smaller."""
    size = max(1, -(-Lx // (workers * _CHUNKS_PER_WORKER)))
    return [(x0, min(x0 + size, Lx)) for x0 in range(0, Lx, size)]


def write_macro_csv(path, macro: MacroFields):
    """Row-major CSV of the macroscopic fields with a labelled header.

    The bytes are those of csv.writer with each value written as the repr of
    its float.  The rows are formatted in contiguous x chunks on one thread
    per CPU the calling thread may run on (at most one per chunk), each
    bound to its own CPU; a chunk is one compiled call (native.csv_rows),
    which runs without the interpreter lock, or, without the compiled
    library, one _python_rows call, with the same bytes.  The calling
    thread writes the chunks to the file in x order as they finish, and
    keeps at most two per thread in flight, so memory stays bounded by the
    chunk size.  An exception from a chunk comes out of this call, after
    the threads have stopped.
    """
    fields = [np.ascontiguousarray(a, dtype=np.float64)
              for a in (macro.rho, macro.ux, macro.uy, macro.T)]
    rows = native.csv_rows(fields) or functools.partial(_python_rows, fields)
    cpus = bindable_cpus()
    chunks = _x_chunks(fields[0].shape[0], max(1, len(cpus)))
    workers = max(1, min(len(cpus), len(chunks)))
    # (chunk, the queue its result goes to), then one None per thread
    todo = queue.SimpleQueue()

    def work(k):
        bind_thread(cpus, k)
        for chunk, out in iter(todo.get, None):
            try:
                out.put((rows(*chunk), None))
            except BaseException as exc:    # raised again by the caller
                out.put((None, exc))

    pending = collections.deque()

    def write_oldest(fh):
        data, exc = pending.popleft().get()
        if exc is not None:
            raise exc
        fh.write(data)

    threads = []
    try:
        for k in range(workers):
            t = threading.Thread(target=work, args=(k,),
                                 name=f"write_macro_csv-{k}")
            t.start()
            threads.append(t)
        with open(path, "wb") as fh:
            fh.write(_MACRO_HEADER)
            for chunk in chunks:
                if len(pending) == 2 * workers:
                    write_oldest(fh)
                pending.append(queue.SimpleQueue())
                todo.put((chunk, pending[-1]))
            while pending:
                write_oldest(fh)
    finally:
        for t in threads:
            todo.put(None)
        for t in threads:
            t.join()


def write_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_bandwidth_table(path, tables):
    """Persist bench_halo_exchange output: kind, message bytes, bandwidth."""
    rows = []
    for kind, points in tables.items():
        for size, bw in points:
            rows.append([kind, size, repr(bw)])
    write_table(path, ["kind", "message_bytes", "bandwidth [bytes/s]"], rows)


def read_bandwidth_table(path):
    """Load a bandwidth table CSV back into {kind: [(bytes, bw), ...]}."""
    tables = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "kind":
            raise ConfigurationError(f"{path}: not a bandwidth table")
        for kind, size, bw in reader:
            tables.setdefault(kind, []).append((float(size), float(bw)))
    return tables


def load_config(path):
    """Structured-text run configuration: a YAML mapping of explicit keys."""
    if not os.path.exists(path):
        raise ConfigurationError(f"config file {path!r} not found")
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError(
                f"{path}: not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a key/value mapping")
    return data
