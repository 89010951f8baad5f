import threading

import numpy as np
import pytest

from thermolb import (PhysicsParams, RankWorker, SimConfig,
                      build_velocity_set, decompose, face_plans, run)
from thermolb.errors import (ConfigurationError, DeadlockError,
                             PeerAbortedError, ProtocolError)
from thermolb.runtime import Fabric, boundary_bytes_per_site


# -------------------------------------------------------------- decompose --

def test_decompose_2d_grid():
    tiles = decompose(3600, 3600, 16, (4, 4))
    assert len(tiles) == 16
    assert all(t.Lx == 900 and t.Ly == 900 for t in tiles)
    t5 = tiles[5]                       # coords (1, 1)
    assert t5.coords == (1, 1)
    assert t5.x0 == 900 and t5.y0 == 900
    assert t5.neighbors == {"left": 4, "right": 6, "up": 9, "down": 1}
    assert not t5.uppermost and not t5.lowermost
    assert tiles[0].lowermost and tiles[0].neighbors["down"] is None
    assert tiles[15].uppermost and tiles[15].neighbors["up"] is None


def test_decompose_1d_ring():
    tiles = decompose(64, 32, 4, "1d")
    assert [t.grid for t in tiles] == [(4, 1)] * 4
    assert tiles[0].neighbors["left"] == 3       # periodic X ring
    assert tiles[3].neighbors["right"] == 0
    assert all(t.uppermost and t.lowermost for t in tiles)
    assert [t.x0 for t in tiles] == [0, 16, 32, 48]


def test_decompose_periodic_y_ring():
    tiles = decompose(16, 16, 4, (1, 4), periodic_y=True)
    assert tiles[0].neighbors["down"] == 3
    assert tiles[3].neighbors["up"] == 0
    assert not any(t.uppermost or t.lowermost for t in tiles)


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


def test_wall_rank_outer_halo_untouched_by_exchange(d2q37):
    # walls: the Y chain has no partner beyond the ends, so the outer halo
    # rows of wall ranks keep what the wall handling wrote (edge extension)
    import threading
    tiles = decompose(8, 8, 2, (1, 2))
    fab = Fabric(2, timeout=5.0)
    ws = [make_worker(t, d2q37, fab) for t in tiles]
    for w in ws:
        fill_sequential(w)
        w._extend_wall_halos(w.prv)
    px = ws[0].geom.phys_x
    lo = ws[0].prv.pops[:, px, ws[0].geom.Hy].copy()
    hi = ws[1].prv.pops[:, px, ws[1].geom.Hy + ws[1].geom.Ly - 1].copy()

    def both(w):
        w.exchange(w.prv, 0, 1)
        w.exchange(w.prv, 0, 0)

    th = [threading.Thread(target=both, args=(w,)) for w in ws]
    for t in th:
        t.start()
    for t in th:
        t.join()
    g = ws[0].geom
    for k in range(g.Hy):
        assert np.array_equal(ws[0].prv.pops[:, px, k], lo)       # below wall
        assert np.array_equal(ws[1].prv.pops[:, px, g.Hy + g.Ly + k], hi)


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


@pytest.mark.parametrize("layout", ["soa", "aos"])
@pytest.mark.parametrize("model", ["D2Q9", "D2Q37"])
@pytest.mark.parametrize("Np, tiling, walls", [
    (1, "1d", False), (2, "1d", False), (4, "1d", False),
    (4, (2, 2), False), (8, (2, 4), False), (2, (1, 2), True)])
def test_exchange_fills_halos_like_a_padded_lattice(model, layout, Np, tiling,
                                                    walls):
    # The oracle knows nothing of the face table: pad the global state the
    # way the physics sees it (Y wrapped, or edge-extended at walls; X
    # wrapped) and compare every value a crossing population brings in.
    vs = build_velocity_set(model)
    Lx, Ly, H = 12, 16, 3
    glob = np.random.default_rng(4).random((vs.Q, Lx, Ly))
    want = np.pad(glob, ((0, 0), (0, 0), (H, H)),
                  mode="edge" if walls else "wrap")
    want = np.pad(want, ((0, 0), (H, H), (0, 0)), mode="wrap")
    fab = Fabric(Np, timeout=5.0)
    ws = [make_worker(t, vs, fab, walls=walls, layout=layout)
          for t in decompose(Lx, Ly, Np, tiling, periodic_y=not walls)]
    for w in ws:
        t, g = w.tile, w.geom
        w.prv.pops[...] = np.nan
        w.prv.pops[:, g.phys_x, g.phys_y] = \
            glob[:, t.x0:t.x0 + t.Lx, t.y0:t.y0 + t.Ly]
        if walls:
            w._extend_wall_halos(w.prv)

    def y_then_x(w):
        w.exchange(w.prv, 0, 1)
        w.exchange(w.prv, 0, 0)

    _run_threads(ws, y_then_x)
    for w in ws:
        t, g = w.tile, w.geom
        got = w.prv.pops
        ref = want[:, t.x0:t.x0 + g.NX, t.y0:t.y0 + g.NY]
        mask = (_reach(vs.c[:, 0], H, g.Lx)[:, :, None]
                & _reach(vs.c[:, 1], H, g.Ly)[:, None, :])
        assert np.array_equal(got[mask], ref[mask])
        outer = ([slice(0, H)] if t.lowermost else []) + \
            ([slice(H + g.Ly, None)] if t.uppermost else [])
        for rows in (outer if walls else []):
            assert np.array_equal(got[:, g.phys_x, rows], ref[:, g.phys_x, rows])


@pytest.mark.parametrize("layout", ["soa", "aos"])
@pytest.mark.parametrize("model", ["D2Q9", "D2Q37"])
def test_single_wall_rank_pack_y_round_trip(model, layout):
    # a wall-bounded rank has no Y neighbor, yet its Y faces pack and
    # unpack: fed its own payload, the pair acts as a periodic Y wrap
    vs = build_velocity_set(model)
    tile = decompose(12, 16, 1, "1d")[0]
    w = make_worker(tile, vs, Fabric(1), layout=layout)
    g = w.geom
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
    assert np.array_equal(a.populations, b.populations)


def test_rank_count_invariance_bitwise():
    p = PhysicsParams(tau=0.8, gy=-1e-4, Twall_top=0.6, Twall_bot=0.75)
    kw = dict(Lx=16, Ly=16, model="D2Q37", steps=6, params=p,
              init="random", init_kwargs={"seed": 5})
    one = run(SimConfig(Np=1, tiling=(1, 1), schedule="staged", **kw))
    four = run(SimConfig(Np=4, tiling="1d", schedule="overlapped", **kw))
    grid = run(SimConfig(Np=4, tiling=(2, 2), schedule="overlapped", **kw))
    assert np.array_equal(one.populations, four.populations)
    assert np.array_equal(one.populations, grid.populations)


def test_halo_poison_never_reaches_physics():
    p = PhysicsParams(tau=0.8, gy=-1e-4, Twall_top=0.6, Twall_bot=0.75)
    res = run(SimConfig(Lx=16, Ly=16, Np=4, tiling=(2, 2), steps=5, params=p,
                        init="random", init_kwargs={"seed": 1},
                        debug_poison=True))
    assert np.all(np.isfinite(res.populations))


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
    assert np.array_equal(one.populations, thin.populations)


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
