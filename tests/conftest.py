import csv

import numpy as np
import pytest

from thermolb import build_velocity_set, native


@pytest.fixture
def compiled():
    if native.load() is None:
        pytest.skip("no C compiler here: the compiled kernel is unavailable")


@pytest.fixture(scope="session")
def d2q37():
    return build_velocity_set("D2Q37")


@pytest.fixture(scope="session")
def d2q9():
    return build_velocity_set("D2Q9")


def periodic_fill(field):
    """Wrap halos periodically in both directions (corners included)."""
    g = field.geom
    pops = field.pops
    Hx, Hy, Lx, Ly = g.Hx, g.Hy, g.Lx, g.Ly
    if Hx:
        pops[:, :Hx, :] = pops[:, Lx:Lx + Hx, :]
        pops[:, Hx + Lx:, :] = pops[:, Hx:2 * Hx, :]
    if Hy:
        pops[:, :, :Hy] = pops[:, :, Ly:Ly + Hy]
        pops[:, :, Hy + Ly:] = pops[:, :, Hy:2 * Hy]


def layout_of(pops):
    """"soa" for one C-contiguous (Q, NX, NY) array, "aos" for a view of a
    C-contiguous (NX, NY, Q) one (bench.stored_as), else None."""
    if pops.flags.c_contiguous:
        return "soa"
    return "aos" if np.moveaxis(pops, 0, 2).flags.c_contiguous else None


def beyond_walls(field):
    """The halo rows below the first and above the last physical row."""
    g = field.geom
    return (field.pops[:, :, :g.Hy], field.pops[:, :, g.Hy + g.Ly:])


def random_state(geom, vs, seed=0, lo=0.5):
    rng = np.random.default_rng(seed)
    return lo + rng.random((vs.Q, geom.NX, geom.NY))


def per_population_equilibrium(rho, ux, uy, T, vs, order=None, check=True):
    """kernels.equilibrium as it was written before its shell form: the
    Hermite terms c2, c3 and c4 rebuilt for every population from p = e.v
    and q = |e|^2.  A test-only oracle for the drift between the two
    roundings; it takes the numpy path always and checks nothing."""
    order = vs.eq_order if order is None else order
    rho = np.asarray(rho, dtype=np.float64)
    cs = np.sqrt(vs.cs2)
    vx = np.asarray(ux) / cs
    vy = np.asarray(uy) / cs
    theta = np.asarray(T) / vs.cs2 - 1.0
    s = vx * vx + vy * vy
    D = 2.0
    out = np.empty((vs.Q,) + rho.shape, dtype=np.float64)
    for l in range(vs.Q):
        ex = vs.c[l, 0] / cs
        ey = vs.c[l, 1] / cs
        q = ex * ex + ey * ey
        p = ex * vx + ey * vy
        poly = 1.0 + p
        c2 = p * p + theta * q - (s + D * theta)
        poly = poly + 0.5 * c2
        if order >= 3:
            c3 = (p * p * p + 3.0 * theta * q * p
                  - 3.0 * p * (s + (D + 2.0) * theta))
            poly = poly + c3 / 6.0
        if order >= 4:
            c4 = (p * p * p * p
                  + 6.0 * theta * q * p * p
                  + 3.0 * theta * theta * q * q
                  - 6.0 * (s * p * p
                           + theta * ((D + 4.0) * p * p + q * s)
                           + theta * theta * (D + 2.0) * q)
                  + 3.0 * (s * s
                           + (2.0 * D + 4.0) * theta * s
                           + D * (D + 2.0) * theta * theta))
            poly = poly + c4 / 24.0
        out[l] = vs.w[l] * rho * poly
    return out


def csv_writer_macro(path, macro):
    """The macro CSV as csv.writer writes it, one row at a time: the
    reference that io.write_macro_csv must match byte for byte."""
    Lx, Ly = macro.rho.shape
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x [site]", "y [site]", "rho [lattice]", "ux [lattice]",
                    "uy [lattice]", "T [lattice]"])
        for x in range(Lx):
            for y in range(Ly):
                w.writerow([x, y,
                            repr(float(macro.rho[x, y])),
                            repr(float(macro.ux[x, y])),
                            repr(float(macro.uy[x, y])),
                            repr(float(macro.T[x, y]))])
