import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from thermolb import (PhysicsParams, RankWorker, SimConfig,
                      build_velocity_set, decompose, face_plans, run)
from thermolb.errors import (ConfigurationError, DeadlockError,
                             DegenerateStateError, PeerAbortedError,
                             ProtocolError)
from thermolb import native
from thermolb.geometry import same_bits
from thermolb.runtime import DEFAULT_HALO, Fabric, boundary_bytes_per_site
from conftest import layout_of


# -------------------------------------------------------------- decompose --

def test_decompose_2d_grid():
    tiles = decompose(3600, 3600, 16, (4, 4))
    assert len(tiles) == 16
    assert all(t.Lx == 900 and t.Ly == 900 for t in tiles)
    t5 = tiles[5]                       # coords (1, 1)
    assert t5.coords == (1, 1)
    assert t5.x0 == 900 and t5.y0 == 900
    assert t5.neighbors == {"left": 4, "right": 6, "up": 9, "down": 1}
    # only the chain's end rows lack a Y neighbour: those tiles hold walls
    ends = [[t.rank for t in tiles if t.neighbors[side] is None]
            for side in ("down", "up")]
    assert ends == [[0, 1, 2, 3], [12, 13, 14, 15]]


def test_decompose_1d_ring():
    tiles = decompose(64, 32, 4, "1d")
    assert [t.grid for t in tiles] == [(4, 1)] * 4
    assert tiles[0].neighbors["left"] == 3       # periodic X ring
    assert tiles[3].neighbors["right"] == 0
    assert all(t.neighbors["up"] is None and t.neighbors["down"] is None
               for t in tiles)
    assert [t.x0 for t in tiles] == [0, 16, 32, 48]


def test_decompose_periodic_y_ring():
    tiles = decompose(16, 16, 4, (1, 4), periodic_y=True)
    assert tiles[0].neighbors["down"] == 3
    assert tiles[3].neighbors["up"] == 0
    assert all(None not in (t.neighbors["up"], t.neighbors["down"])
               for t in tiles)


def test_decompose_rejects_indivisible():
    with pytest.raises(ConfigurationError, match="divides only by"):
        decompose(100, 100, 3, "1d")
    with pytest.raises(ConfigurationError):
        decompose(100, 100, 4, (2, 3))


# ------------------------------------------------------------- face plans --

def test_face_plan_depth_counts_d2q37(d2q37):
    plans = face_plans(d2q37)
    for axis in (0, 1):
        for sign in (1, -1):
            assert [len(ls) for ls in plans[(axis, sign)]] == [15, 8, 3]
    assert boundary_bytes_per_site(d2q37) == 208


def test_face_plan_depth_counts_d2q9(d2q9):
    plans = face_plans(d2q9)
    assert [len(ls) for ls in plans[(0, 1)]] == [3, 0, 0]
    assert boundary_bytes_per_site(d2q9) == 24


def test_face_plan_membership(d2q37):
    plans = face_plans(d2q37)
    for d in (1, 2, 3):
        for l in plans[(0, 1)][d - 1]:
            assert d2q37.c[l, 0] >= d
        # complement really does not cross that deep
        rest = set(range(37)) - set(plans[(0, 1)][d - 1])
        assert all(d2q37.c[l, 0] < d for l in rest)


# ----------------------------------------------------------------- fabric --

def test_fabric_roundtrip():
    fab = Fabric(2, timeout=1.0)
    fab.send(0, 1, "x+", 7, np.arange(3.0))
    got = fab.recv(1, 0, "x+", 7)
    assert np.array_equal(got, np.arange(3.0))


def test_fabric_step_mismatch():
    fab = Fabric(2, timeout=1.0)
    fab.send(0, 1, "x+", 3, None)
    with pytest.raises(ProtocolError, match="expected step 4"):
        fab.recv(1, 0, "x+", 4)


def test_fabric_deadlock_names_rank():
    fab = Fabric(2, timeout=0.2)
    with pytest.raises(DeadlockError, match="rank 1 stalled"):
        fab.recv(1, 0, "x+", 0)


def test_fabric_peer_abort_is_not_a_failure():
    # a rank waiting when a peer fails stops with its own error class, so
    # the coordinator counts only the failure that caused the abort
    fab = Fabric(2, timeout=5.0)
    fab.fail(0, RuntimeError("boom"))
    with pytest.raises(PeerAbortedError, match="rank 1: aborted"):
        fab.recv(1, 0, "x+", 0)
    assert [rank for rank, _ in fab.failures] == [0]


# ---------------------------------------------------------- halo exchange --

def make_worker(tile, vs, fabric, **kw):
    params = PhysicsParams(tau=0.8, Twall_top=0.6, Twall_bot=0.8)
    return RankWorker(tile, vs, params, fabric, **kw)


def fill_sequential(w):
    g = w.geom
    w.prv.pops[...] = 0.0
    block = np.arange(w.vs.Q * g.Lx * g.Ly, dtype=float).reshape(
        w.vs.Q, g.Lx, g.Ly)
    w.prv.pops[:, g.phys_x, g.phys_y] = block + 1000.0 * (w.tile.rank + 1)
    return block


def test_pack_unpack_x_identity(d2q37):
    # what rank 0 packs towards +x must land in rank 1's low-x halo exactly
    tiles = decompose(16, 8, 2, "1d")
    fab = Fabric(2, timeout=2.0)
    w0, w1 = (make_worker(t, d2q37, fab) for t in tiles)
    fill_sequential(w0)
    fill_sequential(w1)
    payload = w0.pack_x(w0.prv, 1)
    w1.unpack_x(w1.prv, 1, payload.copy())
    g0, g1 = w0.geom, w1.geom
    plans = w0.plans[(0, 1)]
    for d in range(1, 4):
        for l in plans[d - 1]:
            src = w0.prv.pops[l, g0.Hx + g0.Lx - d, :]
            dst = w1.prv.pops[l, g1.Hx - d, :]
            assert np.array_equal(src, dst)


def test_unpack_x_rejects_wrong_size(d2q37):
    tiles = decompose(16, 8, 2, "1d")
    w = make_worker(tiles[0], d2q37, Fabric(2))
    with pytest.raises(ProtocolError, match="payload size mismatch"):
        w.unpack_x(w.prv, 1, np.zeros(5))


def test_ring_sentinel_circulation(d2q9):
    # a sentinel on rank 0's +x boundary must appear in rank 1's halo after
    # one contiguous exchange, and propagate around the 4-ring in 4 exchanges
    tiles = decompose(16, 8, 4, "1d")
    fab = Fabric(4, timeout=5.0)
    ws = [make_worker(t, d2q9, fab) for t in tiles]
    for w in ws:
        w.prv.pops[...] = 0.0
    l = d2q9.find(1, 0)
    g = ws[0].geom
    ws[0].prv.pops[l, g.Hx + g.Lx - 1, g.Hy + 2] = 42.0
    import threading
    for step in range(1):
        th = [threading.Thread(target=w.exchange, args=(w.prv, step, 0))
              for w in ws]
        for t in th:
            t.start()
        for t in th:
            t.join()
    assert ws[1].prv.pops[l, g.Hx - 1, g.Hy + 2] == 42.0
    # nothing leaked anywhere else in rank 2's buffer
    assert ws[2].prv.pops.sum() == 0.0


def test_corner_diagonal_via_protocol_order(d2q9):
    # Y exchange first (physical columns), then X (full columns incl. Y halo):
    # a corner sentinel from the diagonal neighbor must arrive intact.
    import threading
    tiles = decompose(8, 8, 4, (2, 2), periodic_y=True)
    fab = Fabric(4, timeout=5.0)
    ws = [make_worker(t, d2q9, fab, walls=False) for t in tiles]
    for w in ws:
        w.prv.pops[...] = 0.0
    l = d2q9.find(-1, -1)
    g = ws[0].geom
    # rank 3 is up-right of rank 0 (2x2, both periodic); its low corner site
    # streams diagonally into rank 0's top-right halo corner
    ws[3].prv.pops[l, g.Hx, g.Hy] = 7.0

    def both(w):
        w.exchange(w.prv, 0, 1)
        w.exchange(w.prv, 0, 0)

    th = [threading.Thread(target=both, args=(w,)) for w in ws]
    for t in th:
        t.start()
    for t in th:
        t.join()
    assert ws[0].prv.pops[l, g.Hx + g.Lx, g.Hy + g.Ly] == 7.0


def _reach(c, H, L):
    """reach[l, i]: padded position i along one axis holds population l after
    an exchange: a physical site, or a halo site at depth d whose population
    crosses the face at least d deep, c >= d below and -c >= d above."""
    i = np.arange(H + L + H)
    depth = np.maximum(H - i, i - (H + L - 1))
    sign = np.where(i < H, 1, -1)
    return (depth <= 0) | (sign * c[:, None] >= depth)


def _run_threads(ws, fn):
    th = [threading.Thread(target=fn, args=(w,)) for w in ws]
    for t in th:
        t.start()
    for t in th:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in th)


# runs store SoA only: every worker's populations are checked for it, the
# storage its face indices address
@pytest.mark.parametrize("layout", ["soa"])
@pytest.mark.parametrize("model", ["D2Q9", "D2Q37"])
@pytest.mark.parametrize("Np, tiling, walls", [
    (1, "1d", False), (2, "1d", False), (4, "1d", False),
    (4, (2, 2), False), (8, (2, 4), False), (2, (1, 2), True)])
def test_exchange_fills_halos_like_a_padded_lattice(model, layout, Np, tiling,
                                                    walls):
    # The oracle knows nothing of the face table: pad the global state
    # periodically in X and Y and compare every value a crossing population
    # brings in.  The rows beyond a wall are left out: no exchange fills
    # them, so they must still hold the NaN they started with.  So are the
    # halos of an axis the rank shares only with itself: the kernel pulls
    # across it from the tile, and no exchange touches them.
    vs = build_velocity_set(model)
    Lx, Ly, H = 12, 16, 3
    glob = np.random.default_rng(4).random((vs.Q, Lx, Ly))
    want = np.pad(glob, ((0, 0), (H, H), (H, H)), mode="wrap")
    fab = Fabric(Np, timeout=5.0)
    ws = [make_worker(t, vs, fab, walls=walls)
          for t in decompose(Lx, Ly, Np, tiling, periodic_y=not walls)]
    for w in ws:
        t, g = w.tile, w.geom
        assert layout_of(w.prv.pops) == layout_of(w.nxt.pops) == layout
        w.prv.pops[...] = np.nan
        w.prv.pops[:, g.phys_x, g.phys_y] = \
            glob[:, t.x0:t.x0 + t.Lx, t.y0:t.y0 + t.Ly]

    def y_then_x(w):
        w.exchange(w.prv, 0, 1)
        w.exchange(w.prv, 0, 0)

    _run_threads(ws, y_then_x)
    for w in ws:
        t, g = w.tile, w.geom
        got = w.prv.pops
        ref = want[:, t.x0:t.x0 + g.NX, t.y0:t.y0 + g.NY]
        assert w.wrap == (t.grid[0] == 1, t.grid[1] == 1 and not walls)
        reach = [_reach(vs.c[:, 0], H, g.Lx), _reach(vs.c[:, 1], H, g.Ly)]
        for axis, L in enumerate((g.Lx, g.Ly)):
            if w.wrap[axis]:
                halo = np.r_[0:H, H + L:H + L + H]
                assert np.all(np.isnan(np.take(got, halo, axis=1 + axis)))
                reach[axis][:, halo] = False
        mask = reach[0][:, :, None] & reach[1][:, None, :]
        beyond = ([slice(0, H)] if t.neighbors["down"] is None else []) + \
            ([slice(H + g.Ly, None)] if t.neighbors["up"] is None else [])
        for rows in beyond:
            mask[:, :, rows] = False
            assert np.all(np.isnan(got[:, :, rows]))
        assert beyond or not walls
        assert np.array_equal(got[mask], ref[mask])


@pytest.mark.parametrize("model", ["D2Q9", "D2Q37"])
def test_wall_rank_x_faces_stop_at_the_clamp_rows(model):
    # the kernel never reads the rows beyond a wall, so no X message of a
    # wall rank carries them
    vs = build_velocity_set(model)
    for t in decompose(12, 16, 2, (1, 2)):
        w = make_worker(t, vs, Fabric(2))
        lo, hi = w.geom.pull_ranges(w.wall_rows, w.wrap)[1]
        assert (lo, hi) != (0, w.geom.NY - 1)
        for sign in (1, -1):
            face = w.faces[(0, sign)]
            for index in (face.send_index, face.halo_index):
                _, _, y = np.unravel_index(index, w.prv.pops.shape)
                assert np.array_equal(np.unique(y), np.arange(lo, hi + 1))


@pytest.mark.parametrize("layout", ["soa"])
@pytest.mark.parametrize("model", ["D2Q9", "D2Q37"])
def test_single_wall_rank_pack_y_round_trip(model, layout):
    # a wall-bounded rank has no Y neighbor, yet its Y faces pack and
    # unpack: fed its own payload, the pair acts as a periodic Y wrap
    vs = build_velocity_set(model)
    tile = decompose(12, 16, 1, "1d")[0]
    w = make_worker(tile, vs, Fabric(1))
    g = w.geom
    assert layout_of(w.prv.pops) == layout
    glob = np.random.default_rng(5).random((vs.Q, g.Lx, g.Ly))
    w.prv.pops[...] = np.nan
    w.prv.pops[:, g.phys_x, g.phys_y] = glob
    for sign in (1, -1):
        w.unpack_y(w.prv, sign, w.pack_y(w.prv, sign))
    ref = np.pad(glob, ((0, 0), (0, 0), (g.Hy, g.Hy)), mode="wrap")
    mask = np.broadcast_to(_reach(vs.c[:, 1], g.Hy, g.Ly)[:, None, :],
                           ref.shape)
    assert np.array_equal(w.prv.pops[:, g.phys_x, :][mask], ref[mask])


# ------------------------------------------------------------------- step --

def test_uniform_equilibrium_is_fixed_point(d2q37):
    cs2 = d2q37.cs2
    cfg = SimConfig(Lx=16, Ly=16, Np=2, tiling="1d", schedule="staged",
                    steps=5, params=PhysicsParams(tau=0.8, Twall_top=cs2,
                                                  Twall_bot=cs2),
                    init="uniform")
    res = run(cfg)
    rho, T = res.macro.rho, res.macro.T
    assert np.max(np.abs(rho - 1.0)) < 1e-12
    assert np.max(np.abs(T - cs2)) < 1e-12
    assert np.max(np.abs(res.macro.ux)) < 1e-13
    assert np.max(np.abs(res.macro.uy)) < 1e-13


def test_zero_steps_returns_initial_state(d2q37):
    cfg = SimConfig(Lx=8, Ly=8, Np=1, steps=0, init="uniform")
    res = run(cfg)
    want = np.broadcast_to(d2q37.w[:, None, None], (37, 8, 8))
    # uniform init at default T = cs2 is the resting weight state
    assert np.allclose(res.populations, want, rtol=1e-14)
    assert res.mlups == 0.0


def test_staged_equals_overlapped_bitwise():
    p = PhysicsParams(tau=0.8, gy=-1e-4, Twall_top=0.6, Twall_bot=0.75)
    kw = dict(Lx=16, Ly=16, model="D2Q37", Np=4, tiling=(2, 2), steps=8,
              params=p, init="random",
              init_kwargs={"seed": 3})
    a = run(SimConfig(schedule="staged", **kw))
    b = run(SimConfig(schedule="overlapped", **kw))
    assert same_bits(a.populations, b.populations)


def test_rank_count_invariance_bitwise():
    p = PhysicsParams(tau=0.8, gy=-1e-4, Twall_top=0.6, Twall_bot=0.75)
    kw = dict(Lx=16, Ly=16, model="D2Q37", steps=6, params=p,
              init="random", init_kwargs={"seed": 5})
    one = run(SimConfig(Np=1, tiling=(1, 1), schedule="staged", **kw))
    four = run(SimConfig(Np=4, tiling="1d", schedule="overlapped", **kw))
    grid = run(SimConfig(Np=4, tiling=(2, 2), schedule="overlapped", **kw))
    assert same_bits(one.populations, four.populations)
    assert same_bits(one.populations, grid.populations)


@pytest.mark.parametrize("tiling, schedule", [
    ((1, 1), "staged"), ((1, 2), "overlapped"), ((2, 2), "overlapped")],
    ids=["1x1-staged", "1x2-overlapped", "2x2-overlapped"])
@pytest.mark.parametrize("model", ["D2Q9", "D2Q37"])
def test_halo_poison_never_reaches_physics(model, tiling, schedule):
    # every halo is NaN before each step's exchange, and the rows beyond the
    # walls stay NaN through the run: nothing that reaches the physics may
    # read them, so the bits equal those of the unpoisoned run
    p = PhysicsParams(tau=0.8, gy=-1e-4, Twall_top=0.6, Twall_bot=0.75)
    kw = dict(Lx=16, Ly=16, model=model, Np=tiling[0] * tiling[1],
              tiling=tiling, schedule=schedule, steps=5, params=p,
              init="random", init_kwargs={"seed": 1})
    poisoned = run(SimConfig(debug_poison=True, **kw))
    assert np.all(np.isfinite(poisoned.populations))
    assert np.array_equal(poisoned.populations, run(SimConfig(**kw)).populations)


THIN = dict(steps=5, params=PhysicsParams(tau=0.8, gy=-1e-4, Twall_top=0.6,
                                          Twall_bot=0.75),
            init="random", init_kwargs={"seed": 2})


@pytest.mark.parametrize("kw, match", [
    # 2-wide tiles along the X ring, below D2Q37's 3-site reach
    (dict(model="D2Q37", Np=4, tiling="1d"), "X extent 2"),
    # 2-high tiles along a periodic Y ring
    (dict(model="D2Q37", Np=8, tiling=(1, 8), walls=False, periodic_y=True),
     "Y extent 2"),
    # D2Q9 reaches one site, but its wall ranks hold 3 wall rows
    (dict(model="D2Q9", Np=8, tiling=(1, 8)), "Y extent 2 .* wall rows"),
], ids=["d2q37-1d-x", "d2q37-periodic-y", "d2q9-wall-rows"])
def test_thin_tiles_are_configuration_errors(kw, match):
    with pytest.raises(ConfigurationError, match=match):
        run(SimConfig(Lx=8, Ly=16, schedule="staged", **kw, **THIN))


@pytest.mark.parametrize("model, Lx, Np", [("D2Q9", 8, 4), ("D2Q9", 8, 8),
                                           ("D2Q37", 12, 4)])
def test_overlapped_tiles_narrower_than_frames_bitwise(model, Lx, Np):
    kw = dict(Lx=Lx, Ly=16, model=model, **THIN)
    one = run(SimConfig(Np=1, schedule="staged", **kw))
    thin = run(SimConfig(Np=Np, tiling="1d", schedule="overlapped", **kw))
    assert same_bits(one.populations, thin.populations)


@pytest.mark.parametrize("tiling", [(1, 2), (2, 2)], ids=["1x2", "2x2"])
@pytest.mark.parametrize("model", ["D2Q9", "D2Q37"])
def test_wall_tiles_as_high_as_the_wall_rows_bitwise(model, tiling):
    # each tile is 3 rows high, so its one wall range spans both of its
    # edges; pulls clamp only on the wall's side, and those from the other
    # side read the rows the neighbour rank sent
    kw = dict(Lx=8, Ly=6, model=model, **THIN)
    one = run(SimConfig(Np=1, schedule="staged", **kw))
    for schedule in ("staged", "overlapped"):
        split = run(SimConfig(Np=tiling[0] * tiling[1], tiling=tiling,
                              schedule=schedule, **kw))
        assert same_bits(one.populations, split.populations), schedule


@pytest.mark.parametrize("model, Lx, Np", [
    ("D2Q9", 8, 4), ("D2Q9", 8, 8), ("D2Q37", 12, 4),   # the thin tiles above
    ("D2Q9", 16, 2), ("D2Q37", 64, 1), ("D2Q37", 12, 2)])
def test_overlapped_regions_partition_the_tile(model, Lx, Np):
    # the bulk spans the full height; the left and right frames are as wide
    # as the stencil reaches, and together the three cover each site once
    vs = build_velocity_set(model)
    tile = decompose(Lx, 16, Np, "1d")[0]
    w = make_worker(tile, vs, Fabric(Np), schedule="overlapped")
    g = w.geom
    hits = np.zeros((g.NX, g.NY), dtype=int)
    for xs, ys in [w.bulk, *w.frames]:
        assert ys == g.phys_y
        hits[xs, ys] += 1
    want = np.zeros_like(hits)
    want[g.phys_x, g.phys_y] = 1
    assert np.array_equal(hits, want)
    widths = [xs.stop - xs.start for xs, _ in w.frames]
    if g.Lx >= 2 * vs.max_hop:
        assert widths == [vs.max_hop, vs.max_hop]
    else:
        assert w.bulk[0].start == w.bulk[0].stop
        assert all(0 <= n <= vs.max_hop for n in widths)


TILINGS = [(1, 1), (1, 2), (2, 1), (2, 2)]


@pytest.mark.parametrize("boundary", ["walls", "periodic_y"])
@pytest.mark.parametrize("model", ["D2Q9", "D2Q37"])
def test_every_small_tiling_and_schedule_bitwise(model, boundary):
    # self axes wrapped in the kernel, one call per step when no X face
    # crosses ranks, and the two-call overlap otherwise: all give Np=1
    # staged's bits
    walls = boundary == "walls"
    kw = dict(Lx=12, Ly=16, model=model, walls=walls, periodic_y=not walls,
              **THIN)
    one = run(SimConfig(Np=1, schedule="staged", **kw)).populations
    for tiling in TILINGS:
        for schedule in ("staged", "overlapped"):
            split = run(SimConfig(Np=tiling[0] * tiling[1], tiling=tiling,
                                  schedule=schedule, **kw))
            assert same_bits(one, split.populations), (tiling, schedule)


def test_random_small_runs_match_one_rank_bitwise():
    # random tile extents down to the stencil's reach, on every small
    # tiling and both schedules, with walls or periodic in Y, on the
    # compiled kernel or the numpy path: each run gives Np=1 staged's bits
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=16, deadline=None, database=None)
    @hypothesis.given(model=st.sampled_from(["D2Q9", "D2Q37"]),
                      tiling=st.sampled_from(TILINGS),
                      schedule=st.sampled_from(["staged", "overlapped"]),
                      walls=st.booleans(), numpy_path=st.booleans(),
                      data=st.data())
    def check(model, tiling, schedule, walls, numpy_path, data):
        hop = build_velocity_set(model).max_hop
        # a wall rank's tile holds its 3 wall rows
        tx = data.draw(st.integers(hop, hop + 3), label="tile Lx")
        ty = data.draw(st.integers(max(hop, 3) if walls else hop, 6),
                       label="tile Ly")
        kw = dict(Lx=tiling[0] * tx, Ly=tiling[1] * ty, model=model,
                  walls=walls, periodic_y=not walls, **dict(THIN, steps=3))
        one = run(SimConfig(Np=1, schedule="staged", **kw)).populations
        with mock.patch.object(native, "_lib",
                               None if numpy_path else native.load()):
            split = run(SimConfig(Np=tiling[0] * tiling[1], tiling=tiling,
                                  schedule=schedule, **kw))
        assert same_bits(one, split.populations)

    check()


@pytest.mark.parametrize("tiling, periodic_y, tags", [
    ((1, 1), False, set()), ((1, 1), True, set()),
    ((2, 1), True, {"x+", "x-"}), ((1, 2), False, {"y+", "y-"})])
@pytest.mark.parametrize("schedule", ["staged", "overlapped"])
def test_faces_to_the_rank_itself_send_no_message(d2q37, tiling, periodic_y,
                                                 tags, schedule):
    # a face whose neighbours are the rank itself is neither copied nor
    # sent, so the fabric only ever carries the faces that cross ranks
    Np = tiling[0] * tiling[1]
    fab = Fabric(Np, timeout=5.0)
    ws = [make_worker(t, d2q37, fab, walls=not periodic_y,
                      schedule=schedule)
          for t in decompose(12, 16, Np, tiling, periodic_y=periodic_y)]
    for w in ws:
        w.prv.pops[...] = d2q37.w[:, None, None]

    def steps(w):
        for s in range(3):
            w.step(s)

    _run_threads(ws, steps)
    assert {tag for _, _, tag in fab.channels} == tags
    assert all(src != dst for src, dst, _ in fab.channels)
    assert all(chan.empty() for chan in fab.channels.values())


@pytest.mark.parametrize("tiling, calls", [((1, 2), 1), ((2, 1), 2),
                                           ((1, 1), 1)])
def test_overlapped_kernel_calls_per_rank_step(monkeypatch, tiling, calls):
    # the overlapped step splits the tile into bulk and frames only when an
    # X face crosses ranks; otherwise it runs the whole tile in one call
    from thermolb import runtime
    seen = []
    fused = runtime.propagate_collide_fused

    def counted(*args, **kwargs):
        seen.append(args[4])
        return fused(*args, **kwargs)

    monkeypatch.setattr(runtime, "propagate_collide_fused", counted)
    Np, steps = tiling[0] * tiling[1], 4
    res = run(SimConfig(Lx=12, Ly=16, model="D2Q37", Np=Np, tiling=tiling,
                        schedule="overlapped", **dict(THIN, steps=steps)))
    assert len(seen) == calls * Np * steps
    if calls == 1:
        assert all(region is None for region in seen)
        assert all(row["t_border"] == 0.0 for row in res.metrics)


@pytest.mark.parametrize("tiling, schedule, order", [
    ((2, 1), "staged", ["Y", "X send", "X recv", "tile"]),
    ((2, 1), "overlapped", ["Y", "X send", "bulk", "X recv", "frames"]),
    ((1, 2), "overlapped", ["Y", "tile"])],
    ids=["2x1-staged", "2x1-overlapped", "1x2-overlapped"])
def test_step_order_of_exchanges_and_kernel_calls(monkeypatch, tiling,
                                                  schedule, order):
    # every rank-step exchanges Y, posts the X messages, and receives them
    # before the first call that reads the X halos: the whole tile when
    # staged, the frames after the bulk when overlapped.  An X that wraps
    # carries no message, and its overlapped step is one call
    from thermolb import runtime
    events, here = {}, threading.local()

    def log(event):
        key = (here.worker.tile.rank, here.step)
        events.setdefault(key, [])
        if events[key][-1:] != [event]:   # one entry per face pair
            events[key].append(event)

    def wrap(owner, name, record):
        real = getattr(owner, name)

        def recorded(*args):
            record(*args)
            return real(*args)
        monkeypatch.setattr(owner, name, recorded)

    def step(w, step_no):
        here.worker, here.step = w, step_no

    def call(prv, nxt, params, vs, region, *rest):
        w = here.worker
        log("tile" if region is None else
            "bulk" if region is w.bulk else "frames" if region is w.frames
            else region)

    wrap(RankWorker, "step", step)
    wrap(RankWorker, "exchange", lambda w, f, s, axis: axis and log("Y"))
    wrap(Fabric, "send", lambda fab, src, dst, tag, *a: tag[0] == "x"
         and log("X send"))
    wrap(Fabric, "recv", lambda fab, dst, src, tag, *a: tag[0] == "x"
         and log("X recv"))
    wrap(runtime, "propagate_collide_fused", call)
    Np, steps = tiling[0] * tiling[1], 3
    res = run(SimConfig(Lx=12, Ly=16, model="D2Q37", Np=Np, tiling=tiling,
                        schedule=schedule, **dict(THIN, steps=steps)))
    assert events == {(r, s): order for r in range(Np) for s in range(steps)}
    if order[-1] == "tile":
        assert all(row["t_border"] == 0.0 for row in res.metrics)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least two CPUs to bind ranks to")
@pytest.mark.parametrize("Np, tiling", [(1, "1d"), (2, "1d"), (4, (2, 2))])
def test_rank_threads_bound_round_robin_to_the_process_cpus(monkeypatch, Np,
                                                             tiling):
    # a rank's thread runs on CPU rank mod n of the caller's n CPUs, and the
    # caller's own set is left as it was; one rank is not bound
    cpus = sorted(os.sched_getaffinity(0))
    seen = {}
    step = RankWorker.step

    def recorded(self, step_no):
        seen[self.tile.rank] = os.sched_getaffinity(0)
        return step(self, step_no)

    monkeypatch.setattr(RankWorker, "step", recorded)
    run(SimConfig(Lx=16, Ly=16, model="D2Q9", Np=Np, tiling=tiling,
                  **dict(THIN, steps=1)))
    assert os.sched_getaffinity(0) == set(cpus)
    assert seen == ({0: set(cpus)} if Np == 1 else
                    {r: {cpus[r % len(cpus)]} for r in range(Np)})


def test_metrics_per_step_and_rank():
    res = run(SimConfig(Lx=16, Ly=8, Np=2, tiling="1d", steps=3,
                        params=PhysicsParams(tau=0.9)))
    assert len(res.metrics) == 3 * 2
    row = res.metrics[0]
    for key in ("step", "rank", "t_comm_nc", "t_comm_c", "t_bulk",
                "t_border", "negatives"):
        assert key in row
    assert res.mlups > 0.0
    assert res.wall_seconds > 0.0


def test_snapshots_cadence():
    res = run(SimConfig(Lx=8, Ly=8, Np=1, steps=4, snapshot_every=2,
                        params=PhysicsParams(tau=0.9)))
    assert [s for s, _ in res.snapshots] == [2, 4]
    for _, macro in res.snapshots:
        assert macro.rho.shape == (8, 8)


def _tg9(**changes):
    cfg = dict(Lx=64, Ly=64, model="D2Q9", Np=2, tiling="1d",
               schedule="staged", steps=16, walls=False, periodic_y=True,
               init="taylor-green", params=PhysicsParams(tau=0.8))
    cfg.update(changes)
    return SimConfig(**cfg)


@pytest.mark.parametrize("Np, tiling", [(2, "1d"), (4, (2, 2))])
def test_snapshots_reduced_per_tile_match_one_rank(Np, tiling):
    one = run(_tg9(Lx=16, Ly=16, Np=1, steps=6, snapshot_every=2))
    many = run(_tg9(Lx=16, Ly=16, Np=Np, tiling=tiling, steps=6,
                    snapshot_every=2))
    assert [s for s, _ in many.snapshots] == [2, 4, 6]
    for (_, a), (_, b) in zip(one.snapshots, many.snapshots):
        for name in ("rho", "ux", "uy", "T"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    # the snapshot at the last step is the final fields, not a recount
    assert many.snapshots[-1][1] is many.macro


def test_snapshot_memory_grows_by_the_block_and_macro_fields():
    # Each extra snapshot may cost only the four macro fields, 4 doubles per
    # site: the ranks reduce their tiles to rho, u and T at the snapshot
    # step, and no population block or global population copy is kept.
    # Each peak is the least of three runs: the two rank threads' numpy
    # temporaries meet at the peak only by chance, while a leak would show
    # in every run.  That chance is one temporary of up to a tile's
    # populations, so the snapshot counts differ by 60, enough to spread it
    # below the bound.
    run(_tg9(Lx=8, Ly=8, steps=1))        # load the kernel first

    def peak(every):
        peaks = []
        for _ in range(3):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run(_tg9(steps=64, snapshot_every=every))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        return min(peaks)

    per_snapshot = (peak(1) - peak(16)) / (64 - 4)
    assert per_snapshot / (64 * 64) <= 1.1 * 4 * 8


def test_run_peak_memory_holds_no_initial_state():
    # On the compiled step one run() holds the rank's two padded buffers and
    # the final state, Q doubles per site each, and the final macro fields;
    # the initial state is released once the tiles hold it, and the tiles
    # are copied into the final state without a contiguous copy first.  The
    # numpy step's own temporaries set a higher peak, so it is not bounded
    # here.
    if native.load() is None:
        pytest.skip("no C compiler here: the compiled kernel is unavailable")
    cfg = SimConfig(Lx=64, Ly=128, model="D2Q37", Np=1, schedule="staged",
                    steps=2, init="rayleigh-taylor",
                    params=PhysicsParams(tau=0.8, gy=-1e-5))
    run(cfg)                               # load the kernel first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    Q, pad = 37, 2 * DEFAULT_HALO
    population = Q * 8 * cfg.Lx * cfg.Ly
    buffers = 2 * Q * 8 * (cfg.Lx + pad) * (cfg.Ly + pad)
    assert peak <= buffers + 1.3 * population


def test_snapshot_density_error_names_global_sites(monkeypatch):
    # A bad site in rank 1's snapshot block (x0 = 32) surfaces from the
    # stitched density with the lattice's own coordinates.
    real_block = RankWorker.physical_block

    def block(self):
        out = real_block(self).copy()
        if (self.tile.rank == 1
                and threading.current_thread() is not threading.main_thread()):
            out[:, 2, 3] = 0.0      # only the snapshots, not the final state
        return out

    monkeypatch.setattr(RankWorker, "physical_block", block)
    with pytest.raises(DegenerateStateError) as err:
        run(_tg9(steps=3, snapshot_every=2))
    assert str(err.value) == "non-positive density at [[34, 3]]"
    assert err.value.sites.tolist() == [[34, 3]]


def test_deadlock_detection_surfaces():
    # a receive with no matching send must fail fast with the rank named
    fab = Fabric(3, timeout=0.15)
    with pytest.raises(DeadlockError) as err:
        fab.recv(2, 1, "y+", 5)
    assert err.value.rank == 2


# ----------------------------------------------------------------- config --

def test_config_rejects_zero_ranks():
    with pytest.raises(ConfigurationError, match="Np"):
        SimConfig(Lx=8, Ly=8, Np=0)


@pytest.mark.parametrize("Lx, Ly", [(0, 8), (8, 0), (-1, 8)])
def test_config_rejects_empty_extents(Lx, Ly):
    with pytest.raises(ConfigurationError, match="extents"):
        SimConfig(Lx=Lx, Ly=Ly)


def test_config_rejects_negative_steps():
    with pytest.raises(ConfigurationError, match="steps"):
        SimConfig(Lx=8, Ly=8, steps=-2)


def test_config_rejects_negative_snapshot_every():
    with pytest.raises(ConfigurationError, match="snapshot_every"):
        SimConfig(Lx=8, Ly=8, snapshot_every=-1)


@pytest.mark.parametrize("tiling", [[2, 1], (2,), (2, 0), (2.0, 1), "2x1"])
def test_config_rejects_bad_tiling(tiling):
    with pytest.raises(ConfigurationError, match="tiling"):
        SimConfig(Lx=8, Ly=8, Np=2, tiling=tiling)


@pytest.mark.parametrize("walls, periodic_y", [(False, False), (True, True)])
def test_config_needs_exactly_one_y_boundary(walls, periodic_y):
    # without walls and without a Y ring the outer Y halos are never filled
    # and the run loses mass without an error
    with pytest.raises(ConfigurationError, match="exactly one of walls"):
        SimConfig(Lx=16, Ly=16, model="D2Q9", walls=walls,
                  periodic_y=periodic_y)
