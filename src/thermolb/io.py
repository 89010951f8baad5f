"""Snapshot and table output, plus structured-text config loading."""

import csv
import functools
import os

import numpy as np
import yaml

from . import native
from .errors import ConfigurationError
from .geometry import MacroFields


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


def _python_rows(fields, x):
    """The rows of x as write_macro_csv writes them, formatted in one Python
    pass of f-strings: the reference for native.csv_rows and its fallback."""
    return "".join([
        f"{x},{y},{rho!r},{ux!r},{uy!r},{T!r}\r\n"
        for y, rho, ux, uy, T in zip(
            range(fields[0].shape[1]), *(a[x].tolist() for a in fields))
    ]).encode()


def write_macro_csv(path, macro: MacroFields):
    """Row-major CSV of the macroscopic fields with a labelled header.

    The bytes are those of csv.writer with each value written as the repr of
    its float.  The rows of one x are formatted in one compiled call
    (native.csv_rows, into one reused buffer of Ly rows) and written with
    one call, so memory stays bounded by one x of rows.  Without the
    compiled library they are formatted by _python_rows, with the same
    bytes.
    """
    fields = [np.ascontiguousarray(a, dtype=np.float64)
              for a in (macro.rho, macro.ux, macro.uy, macro.T)]
    rows = native.csv_rows(fields) or functools.partial(_python_rows, fields)
    with open(path, "wb") as fh:
        fh.write(_MACRO_HEADER)
        for x in range(fields[0].shape[0]):
            fh.write(rows(x))


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
