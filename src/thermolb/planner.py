"""Analytic communication/scaling cost model for 1D and 2D tilings.

Predicts per-step wall time as a perfect-scaling term beta*N/Np multiplied by
a dimensionless scale-violation factor, with and without communication/
computation overlap.  Bandwidths may be given as size-dependent tables
(piecewise-linear interpolation), since effective bandwidth depends on the
transfer direction and on buffer size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, UnsupportedCaseError

# Default bytes moved per boundary site: 26 populations x 8 bytes.
DEFAULT_S = 26 * 8


class BandwidthTable:
    """Effective bandwidth (bytes/s) as a function of message size (bytes)."""

    def __init__(self, sizes, bandwidths):
        sizes = np.asarray(sizes, dtype=np.float64)
        bandwidths = np.asarray(bandwidths, dtype=np.float64)
        if sizes.size == 0 or sizes.size != bandwidths.size:
            raise ContractViolation("bandwidth table needs matching nonempty columns")
        order = np.argsort(sizes)
        self.sizes = sizes[order]
        self.bandwidths = bandwidths[order]

    @classmethod
    def constant(cls, bandwidth):
        return cls([1.0], [float(bandwidth)])

    def at(self, message_bytes):
        return float(np.interp(message_bytes, self.sizes, self.bandwidths))


def _as_table(b):
    return b if isinstance(b, BandwidthTable) else BandwidthTable.constant(b)


@dataclass
class CostModelInput:
    """Every symbol of the cost model: lattice, ranks, bandwidths, beta, S."""

    Lx: int
    Ly: int
    Np: int
    Bx: "BandwidthTable | float"
    By: "BandwidthTable | float"
    beta: float          # per-site processing time, s/site
    S: float = DEFAULT_S  # bytes per boundary site

    def __post_init__(self):
        if min(self.Lx, self.Ly, self.Np) < 1 or self.beta <= 0 or self.S < 0:
            raise ContractViolation("cost model inputs must be positive")
        self.Bx = _as_table(self.Bx)
        self.By = _as_table(self.By)

    @property
    def N(self):
        return self.Lx * self.Ly


@dataclass
class Prediction:
    """Predicted wall time per step and its decomposition."""

    T_total: float
    T_C: float
    T_P: float
    grid: tuple
    scale_violation: float


def _predict(inp: CostModelInput, T_C, grid, T=None):
    """The prediction for T_C and a total T, by default T_P + T_C."""
    T_P = inp.beta * inp.N / inp.Np
    if T is None:
        T = T_P + T_C
    return Prediction(T, T_C, T_P, grid, T * inp.Np / (inp.beta * inp.N))


def surface_over_volume(Np, d):
    """Surface-over-volume ratio d * Np^(1/d) of a d-dimensional tiling."""
    if d not in (1, 2) or Np < 1:
        raise ContractViolation("d must be 1 or 2, Np >= 1")
    return d * Np ** (1.0 / d)


def _bw_xy(inp: CostModelInput, nx, ny):
    # Evaluate each table at the message size implied by the boundary it serves.
    by = inp.By.at(inp.S * inp.Ly / ny)
    bx = inp.Bx.at(inp.S * inp.Lx / nx)
    return bx, by


def comm_time_2d(inp: CostModelInput, nx, ny):
    """T_C = S * (Ly / (By ny) + Lx / (Bx nx)) for an nx x ny rank grid."""
    if nx * ny != inp.Np:
        raise ContractViolation(f"grid {nx}x{ny} does not cover Np={inp.Np}")
    bx, by = _bw_xy(inp, nx, ny)
    return inp.S * (inp.Ly / (by * ny) + inp.Lx / (bx * nx))


def factor_pairs(n):
    return [(d, n // d) for d in range(1, n + 1) if n % d == 0]


def optimal_grid(inp: CostModelInput):
    """Real-valued comm-optimal grid and the best integer factor pair.

    Real optimum: nx = sqrt(Np)*R, ny = sqrt(Np)/R with
    R = sqrt(Lx By / (Ly Bx)) (aspect-ratio / bandwidth-mismatch factor).
    """
    # The aspect-ratio factor uses the bandwidths at the real-optimal message
    # sizes; solve the fixed point crudely by one evaluation at sqrt(Np).
    r0 = math.sqrt(inp.Np)
    bx, by = _bw_xy(inp, r0, r0)
    R = math.sqrt(inp.Lx * by / (inp.Ly * bx))
    real = (math.sqrt(inp.Np) * R, math.sqrt(inp.Np) / R)
    best = min(factor_pairs(inp.Np), key=lambda p: comm_time_2d(inp, *p))
    return real, best


def predict_1d(inp: CostModelInput):
    """1-D tiling: T = beta N/Np * {1 + (2 S Ly / (beta By)) * Np / N}."""
    by = inp.By.at(inp.S * inp.Ly)
    T_C = inp.beta * inp.N / inp.Np * (2.0 * inp.S * inp.Ly / (inp.beta * by)) * inp.Np / inp.N
    return _predict(inp, T_C, (inp.Np, 1))


def predict_2d(inp: CostModelInput, grid=None):
    """2-D tiling.  grid=None evaluates the closed form at the real optimum:
    T = beta N/Np * {1 + (4S/beta) / sqrt(Bx By) * sqrt(Np/N)}."""
    if grid is not None:
        nx, ny = grid
        return _predict(inp, comm_time_2d(inp, nx, ny), (nx, ny))
    real, _ = optimal_grid(inp)
    bx, by = _bw_xy(inp, *real)
    brace = (4.0 * inp.S / inp.beta) / math.sqrt(bx * by) * math.sqrt(inp.Np / inp.N)
    T_C = inp.beta * inp.N / inp.Np * brace
    return _predict(inp, T_C, real)


def predict_1d_overlap(inp: CostModelInput):
    """1-D tiling with bulk compute overlapping the halo transfer:
    T = beta N/Np * {max(1 - 6 Ly Np/N, (2 S Ly/(beta By)) Np/N) + 6 Ly Np/N}."""
    by = inp.By.at(inp.S * inp.Ly)
    border = 6.0 * inp.Ly * inp.Np / inp.N
    comm = (2.0 * inp.S * inp.Ly / (inp.beta * by)) * inp.Np / inp.N
    brace = max(1.0 - border, comm) + border
    T = inp.beta * inp.N / inp.Np * brace
    T_C = inp.beta * inp.N / inp.Np * comm
    return _predict(inp, T_C, (inp.Np, 1), T)


def predict_2d_overlap(inp: CostModelInput):
    """2-D overlap estimate, stated only for square lattices at nx = ny = sqrt(Np):
    T = beta N/Np * {max(1 - 12 sqrt(Np/N), (2S/(beta By)) sqrt(Np/N))
                     + (2S/(beta Bx)) sqrt(Np/N) + 12 sqrt(Np/N)}."""
    if inp.Lx != inp.Ly:
        raise UnsupportedCaseError(
            "the 2-D overlap estimate is stated only for square lattices"
        )
    r = math.sqrt(inp.Np)
    bx, by = _bw_xy(inp, r, r)
    root = math.sqrt(inp.Np / inp.N)
    border = 12.0 * root
    comm_y = (2.0 * inp.S / (inp.beta * by)) * root
    comm_x = (2.0 * inp.S / (inp.beta * bx)) * root
    brace = max(1.0 - border, comm_y) + comm_x + border
    T = inp.beta * inp.N / inp.Np * brace
    T_C = inp.beta * inp.N / inp.Np * (comm_x + comm_y)
    return _predict(inp, T_C, (r, r), T)


def brent_bound(w_per_site, N, Np):
    """PRAM bound T = w * (1 + (N - 1) / Np)."""
    if w_per_site <= 0 or N < 1 or Np < 1:
        raise ContractViolation("brent_bound needs positive inputs")
    return w_per_site * (1.0 + (N - 1.0) / Np)


def scaling_curve(inp_base: CostModelInput, Np_list):
    """Model predictions for every tiling of each Np.

    Returns rows (Np, tiling, nx, ny, T_total, Np*T, scale_violation).  2-D
    rows are emitted for every factor pair, then the overlap variants from
    the formulas above (2-D overlap only for square lattices).
    """
    rows = []
    for Np in Np_list:
        inp = CostModelInput(inp_base.Lx, inp_base.Ly, int(Np),
                             inp_base.Bx, inp_base.By, inp_base.beta, inp_base.S)
        p = predict_1d(inp)
        rows.append((Np, "1d", Np, 1, p.T_total, Np * p.T_total, p.scale_violation))
        for nx, ny in factor_pairs(Np):
            p = predict_2d(inp, grid=(nx, ny))
            rows.append((Np, "2d", nx, ny, p.T_total, Np * p.T_total, p.scale_violation))
        p = predict_1d_overlap(inp)
        rows.append((Np, "1d_overlap", Np, 1, p.T_total, Np * p.T_total,
                     p.scale_violation))
        if inp.Lx == inp.Ly:
            p = predict_2d_overlap(inp)
            rows.append((Np, "2d_overlap", p.grid[0], p.grid[1], p.T_total,
                         Np * p.T_total, p.scale_violation))
    return rows
