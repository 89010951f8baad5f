import numpy as np
import pytest

from thermolb import LatticeGeometry, allocate_field
from thermolb.bench import stored_as
from thermolb.errors import AllocationError, ContractViolation
from thermolb.geometry import PopulationField, same_bits


def test_padding_formula(d2q9):
    g = LatticeGeometry(4, 4, 3, 3, d2q9.Q)
    prv, nxt = allocate_field(g, d2q9)
    assert prv.pops.shape == (9, 10, 10)
    assert nxt.pops.shape == (9, 10, 10)
    assert prv.pops.dtype == np.float64 and prv.pops.flags.c_contiguous
    assert not np.shares_memory(prv.pops, nxt.pops)
    assert prv.pops.sum() == 0.0


def test_table2_lattice_extents(d2q37):
    g = LatticeGeometry(1024, 8192, 3, 3, d2q37.Q)
    assert g.NX == 1030
    assert g.NY == 8198


def test_degenerate_extent_rejected():
    with pytest.raises(AllocationError):
        LatticeGeometry(0, 4, 3, 3, 9)


def test_thin_halo_rejected(d2q37):
    g = LatticeGeometry(8, 8, 1, 1, d2q37.Q)
    with pytest.raises(AllocationError):
        allocate_field(g, d2q37)


def test_oversize_allocation_rejected():
    g = LatticeGeometry(70000, 70000, 3, 3, 9)
    with pytest.raises(AllocationError):
        PopulationField(g)


@pytest.mark.parametrize("layout", ["soa", "aos"])
def test_layout_round_trip(layout, d2q9):
    # a value written through the (Q, NX, NY) view lands at the storage
    # offset of its layout: population-major for a field as runs store it,
    # site-major for the benchmark's AoS copy
    g = LatticeGeometry(3, 5, 3, 3, d2q9.Q)
    f = stored_as(PopulationField(g), layout)
    if layout == "soa":        # (l, x, y) strides and the flat storage
        strides, storage = (g.NX * g.NY, g.NY, 1), f.pops.reshape(-1)
    else:
        strides = (1, g.NY * g.Q, g.Q)
        storage = np.moveaxis(f.pops, 0, 2).reshape(-1)
    assert np.shares_memory(storage, f.pops)
    rng = np.random.default_rng(1)
    writes = {}
    for _ in range(50):
        l = int(rng.integers(g.Q))
        x = int(rng.integers(g.NX))
        y = int(rng.integers(g.NY))
        v = float(rng.random())
        f.pops[l, x, y] = v
        writes[(l, x, y)] = v
    for (l, x, y), v in writes.items():
        assert storage[np.dot((l, x, y), strides)] == v


def test_layout_conversion_identity(d2q37):
    # both of the layout benchmark's copies hold the field's bits in new
    # storage
    g = LatticeGeometry(4, 6, 3, 3, d2q37.Q)
    f = PopulationField(g)
    f.pops[...] = np.random.default_rng(0).random(f.pops.shape)
    for layout in ("soa", "aos"):
        copy = stored_as(f, layout)
        assert copy.geom is g
        assert same_bits(copy.pops, f.pops)
        assert not np.shares_memory(copy.pops, f.pops)
    with pytest.raises(ContractViolation, match="layout"):
        stored_as(f, "csr")
