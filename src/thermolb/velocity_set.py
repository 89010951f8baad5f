"""Discrete velocity stencils: D2Q37 and D2Q9.

The D2Q37 weights are not hard-coded; they are derived at build time by
solving the moment-matching system that forces all even velocity moments up
to order 8 to coincide with those of a centered Gaussian, grouping weights
by speed shell.  The squared sound speed cs2 is the (unique positive-weight)
value that makes the system consistent.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigurationError

# Even 1-D Gaussian moments E[x^n] / sigma^n for n = 0, 2, 4, 6, 8.
_GAUSS_EVEN = {0: 1.0, 2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0}


@dataclass(frozen=True)
class VelocitySet:
    """A discrete velocity stencil: vectors, quadrature weights and sound speed."""

    name: str
    Q: int
    c: np.ndarray        # (Q, 2) integer lattice hops per time step
    w: np.ndarray        # (Q,) quadrature weights, sum to 1
    cs2: float           # squared lattice sound speed
    max_hop: int         # max |component| over all vectors
    eq_order: int        # Hermite truncation order supported by the quadrature

    def __post_init__(self):
        self.c.setflags(write=False)
        self.w.setflags(write=False)

    def find(self, cx, cy):
        """Index of velocity (cx, cy)."""
        hits = np.nonzero((self.c[:, 0] == cx) & (self.c[:, 1] == cy))[0]
        if hits.size != 1:
            raise ConfigurationError(f"velocity ({cx},{cy}) not in {self.name}")
        return int(hits[0])


def _signed_permutations(a, b):
    out = set()
    for x, y in ((a, b), (b, a)):
        for sx in (1, -1):
            for sy in (1, -1):
                out.add((sx * x, sy * y))
    return sorted(out)


def _d2q37_vectors():
    vecs = [(0, 0)]
    for a, b in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)):
        vecs.extend(_signed_permutations(a, b))
    return np.array(vecs, dtype=np.int64)


def gaussian_moment(a, b, sigma2):
    """E[x^a y^b] of an isotropic centered 2-D Gaussian with variance sigma2."""
    if a % 2 or b % 2:
        return 0.0
    return _GAUSS_EVEN[a] * _GAUSS_EVEN[b] * sigma2 ** ((a + b) // 2)


def _solve_d2q37_weights():
    """Return (weights, cs2) from the shell-grouped moment-matching system."""
    c = _d2q37_vectors()
    shells = sorted({tuple(sorted((abs(x), abs(y)))) for x, y in c})
    shell_of = np.array(
        [shells.index(tuple(sorted((abs(x), abs(y))))) for x, y in c]
    )
    # Independent even-moment constraints through order 8 (x<->y symmetric).
    monomials = [(0, 0), (2, 0), (2, 2), (4, 0), (4, 2), (6, 0), (4, 4), (6, 2), (8, 0)]
    A = np.zeros((len(monomials), len(shells)))
    for j in range(len(shells)):
        members = c[shell_of == j]
        for i, (a, b) in enumerate(monomials):
            A[i, j] = np.sum(
                members[:, 0].astype(float) ** a * members[:, 1].astype(float) ** b
            )

    def rhs(sigma2):
        return np.array([gaussian_moment(a, b, sigma2) for a, b in monomials])

    def residual(sigma2):
        # 8 unknown shell weights; consistency of the 9th equation selects cs2.
        w = np.linalg.solve(A[:8], rhs(sigma2)[:8])
        return A[8] @ w - rhs(sigma2)[8]

    # Scan the grid lazily: the first sign change whose root gives positive
    # weights ends it, so the points past it are never evaluated.
    grid = np.linspace(0.2, 1.6, 600)
    root = None
    prev = residual(grid[0])
    for k in range(len(grid) - 1):
        cur = residual(grid[k + 1])
        if np.sign(prev) != np.sign(cur):
            cand = brentq(residual, grid[k], grid[k + 1], xtol=1e-16, rtol=8.9e-16)
            w_shell = np.linalg.solve(A[:8], rhs(cand)[:8])
            if np.all(w_shell > 0):
                root = cand
                break
        prev = cur
    if root is None:
        raise ConfigurationError("no positive-weight solution for D2Q37 moments")
    # Re-solve against all 9 equations for a symmetric least-squares polish.
    w_shell, *_ = np.linalg.lstsq(A, rhs(root), rcond=None)
    return w_shell[shell_of], float(root)


@lru_cache(maxsize=None)
def _build(name):
    if name == "D2Q37":
        c = _d2q37_vectors()
        w, cs2 = _solve_d2q37_weights()
        return VelocitySet("D2Q37", 37, c, w, cs2, 3, eq_order=4)
    if name == "D2Q9":
        c = np.array(
            [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1),
             (1, 1), (-1, 1), (-1, -1), (1, -1)],
            dtype=np.int64,
        )
        w = np.array([4 / 9] + [1 / 9] * 4 + [1 / 36] * 4)
        return VelocitySet("D2Q9", 9, c, w, 1 / 3, 1, eq_order=2)
    raise ConfigurationError(f"unknown velocity set {name!r} (expected D2Q37 or D2Q9)")


def build_velocity_set(name):
    """Build the named stencil ("D2Q37" or "D2Q9")."""
    return _build(str(name))
