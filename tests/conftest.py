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
