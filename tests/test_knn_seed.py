"""The kNN first-window seed (``indices/base.py``).

ZM and LISA size a query's first window from its key-order neighbours in
the store; RSMI and Flood keep the global-density guess.  The seed may only
change what a kNN call costs, never what it answers: the properties here
are that it bounds the true k-th distance from above (so one round of
windows is enough), and that answers keep their bytes — rows, order and
tie-breaks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.update_processor import UpdateProcessor
from repro.indices import FloodIndex, LISAIndex, RSMIIndex, ZMIndex
from repro.indices.base import OriginalBuilder
from repro.ml.trainer import TrainConfig
from repro.obs.trace import get_tracer
from repro.queries import brute_force_knn
from repro.spatial.rect import Rect
from tests.brute import _distances, assert_knn


def _count_window_rounds(index):
    """Record the size of every ``window_queries`` call ``index`` makes."""
    rounds, inner = [], index.window_queries
    index.window_queries = lambda wins: rounds.append(len(wins)) or inner(wins)
    return rounds


# ----------------------------------------------------------------------
# (a) the seed radius covers the true k-th distance
# ----------------------------------------------------------------------
# Coordinates on a coarse lattice give exact duplicates, and under a 2-bit
# Z-curve (16 cells) distinct points share keys, so runs of equal keys
# longer than the 2k gathered rows occur.
_LATTICE = st.integers(0, 8).map(lambda i: i / 8.0)


@st.composite
def _seed_cases(draw):
    k = draw(st.integers(1, 4))
    n = draw(
        st.sampled_from(
            [n for n in (1, k - 1, k, 2 * k - 1, 2 * k, 5 * k) if n >= 1]
        )
    )
    data = draw(arrays(np.float64, (n, 2), elements=_LATTICE))
    if n > 2 * k and draw(st.booleans()):
        data[: 2 * k + 1] = data[0]  # a run of 2k + 1 equal keys, whatever the map
    lo, hi = data.min(axis=0), data.max(axis=0)
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    inside = draw(arrays(np.float64, (3, 2), elements=st.floats(0.0, 1.0)))
    outside = draw(
        arrays(np.float64, (3, 2), elements=st.floats(-50.0, 50.0, allow_subnormal=False))
    )
    return k, data, np.vstack([corners, data[:2], inside, outside])


@pytest.mark.parametrize("dtype", ["float64"])
@pytest.mark.parametrize(
    "cls, params",
    [(ZMIndex, {"bits": 2, "branching": 1}), (LISAIndex, {"grid_size": 2})],
)
@settings(max_examples=60, deadline=None)
@given(case=_seed_cases())
def test_seed_radius_covers_the_kth_distance(cls, params, dtype, case):
    k, data, queries = case
    builder = OriginalBuilder(train_config=TrainConfig(epochs=2))
    index = cls(builder=builder, **params).build(data)
    assert index.store.keys.dtype == np.dtype(dtype)
    radius = index._knn_first_sides(queries, k) / 2.0
    for q, r in zip(queries, radius):
        assert r >= np.sort(_distances(data, q))[min(k, len(data)) - 1]
    if cls is ZMIndex:  # exact windows: true neighbours, after one round
        rounds = _count_window_rounds(index)
        assert_knn("ZM", data, queries, k, index.knn_queries(queries, k))
        assert len(data) < k or rounds == [len(queries)]


@pytest.mark.parametrize("cls", [ZMIndex, LISAIndex])
def test_non_finite_queries_end_with_no_rows(osm_points, cls):
    # A NaN or infinite coordinate makes the seeded side NaN or inf; the
    # search must still end, and with what it always answered: nothing.
    builder = OriginalBuilder(train_config=TrainConfig(epochs=5))
    index = cls(builder=builder).build(osm_points[:500])
    queries = np.array([[np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf], [0.3, 0.3]])
    with np.errstate(invalid="ignore"):
        got = index.knn_queries(queries, 4)
    assert [len(rows) for rows in got] == [0, 0, 0, 4]


# ----------------------------------------------------------------------
# Shared fixtures for the answer checks
# ----------------------------------------------------------------------
def _build(cls, points):
    return cls(builder=ELSIModelBuilder(ELSIConfig(train_epochs=80), method="SP")).build(
        points
    )


@pytest.fixture(scope="module")
def tied_points(osm_points):
    """The OSM1 fixture plus 200 duplicated rows and a power-of-two lattice
    patch: exact distance ties, between duplicates and between distinct
    points."""
    axis = 0.25 + np.arange(8) / 64.0
    patch = np.array([(x, y) for x in axis for y in axis])
    return np.vstack([osm_points, osm_points[:200], patch])


@pytest.fixture(scope="module")
def knn_probes(tied_points):
    rng = np.random.default_rng(11)
    return np.vstack(
        [
            tied_points[rng.integers(0, len(tied_points), 250)],
            tied_points[-64::5],  # lattice points: four equidistant neighbours
            rng.random((100, 2)),
            rng.random((21, 2)) * 3.0 - 1.0,  # around and outside the bounds
        ]
    )


# ----------------------------------------------------------------------
# (b) one round of windows per batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("b", [1, 8, 384])
def test_zm_knn_is_one_window_round(tied_points, knn_probes, b):
    index = _build(ZMIndex, tied_points)
    calls = _count_window_rounds(index)
    for k in (1, 25, 300):
        del calls[:]
        got = index.knn_queries(knn_probes[:b], k)
        assert calls == [b]
        assert_knn("ZM", tied_points, knn_probes[:b], k, got)
    extra = np.random.default_rng(12).random((200, 2)) * 1.2 - 0.1
    for p in extra:
        index.insert(p)
    del calls[:]
    got = index.knn_queries(knn_probes[:b], 25)
    assert calls == [b]
    assert_knn("ZM", np.vstack([tied_points, extra]), knn_probes[:b], 25, got)


# ----------------------------------------------------------------------
# (c) answers keep brute-force order, ties included, under pending updates
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [ZMIndex, LISAIndex])
def test_update_processor_knn_is_brute_force_order(tied_points, knn_probes, cls):
    index = _build(cls, tied_points)
    processor = UpdateProcessor(index)
    # Scan order is the tie-break: brute force over the store's rows.
    stored = index.indexed_points()
    for q in knn_probes[::7]:
        for k in (1, 5, 40):
            assert processor.knn_query(q, k).tobytes() == brute_force_knn(stored, q, k).tobytes()

    # Pending deletes: the base is asked for k + len(deleted) neighbours.
    doomed = tied_points[300:340]  # rows without a duplicate
    for p in doomed:
        assert processor.delete(p)
    gone = {tuple(p) for p in doomed.tolist()}
    alive = stored[[tuple(p) not in gone for p in stored.tolist()]]
    queries = np.vstack([doomed[:10], knn_probes[::9]])
    for k in (1, 6):
        for q, got in zip(queries, processor.knn_queries(queries, k)):
            assert got.tobytes() == brute_force_knn(alive, q, k).tobytes()

    # And a side list: inserted rows rank after stored rows at equal distance.
    side = np.vstack([knn_probes[:15] + 1e-3, tied_points[-3:], [[4.0, 4.0]]])
    for p in side:
        processor.insert(p)
    current = np.vstack([alive, side])
    for k in (1, 6):
        for q, got in zip(queries, processor.knn_queries(queries, k)):
            assert got.tobytes() == brute_force_knn(current, q, k).tobytes()


# ----------------------------------------------------------------------
# (d) the density-seeded indices answer as before
# ----------------------------------------------------------------------
def _density_seeded_knn(index, pts, k):
    """The expanding-window driver as it stood before the seed: first side
    from the global density, one query at a time; it gives up at the side
    that covers the data bounds from the query (at least twice the data
    extent)."""
    d = index.bounds.ndim
    density = index.n_points / index.bounds.area()
    lo, hi = index.bounds.lo_array, index.bounds.hi_array
    out = []
    for q in pts:
        max_side = max(
            float(index.bounds.extents.max()) * 2.0 + 1e-9,
            2.0 * float(np.maximum(np.abs(q - lo), np.abs(q - hi)).max()),
        )
        side = (k / density) ** (1.0 / d)
        while True:
            cand = index.window_queries([Rect.centered(q, side)])[0]
            dist = _distances(cand, q)
            order = np.argsort(dist, kind="stable")
            if len(cand) >= k and (dist[order[k - 1]] <= side / 2.0 or side > max_side):
                out.append(cand[order[:k]])
                break
            if len(cand) < k and side > max_side:
                out.append(cand[order])
                break
            side *= 2.0
    return out


@pytest.mark.parametrize("cls", [RSMIIndex, FloodIndex])
def test_density_seeded_indices_answer_unchanged(tied_points, knn_probes, cls):
    index = _build(cls, tied_points)
    far = np.array([[5.0, 5.0], [-3.0, 0.5]])
    queries = np.vstack([knn_probes[::4], far])
    for k in (1, 7, 60):
        got = index.knn_queries(queries, k)
        want = _density_seeded_knn(index, queries, k)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert all(len(g) == k for g in got[-2:])  # far queries reach the data


# ----------------------------------------------------------------------
# Accounting and tracing
# ----------------------------------------------------------------------
def test_seed_rows_are_charged_and_traced(tied_points, knn_probes):
    index = _build(ZMIndex, tied_points)
    queries, k = knn_probes[:50], 9
    window_scanned, window_reads = [], []
    inner = index.window_queries

    def metered(windows):
        scanned, reads = index.query_stats.points_scanned, index.store.block_reads
        result = inner(windows)
        window_scanned.append(index.query_stats.points_scanned - scanned)
        window_reads.append(index.store.block_reads - reads)
        return result

    index.window_queries = metered
    index.query_stats.reset()
    index.store.reset_block_reads()
    tracer = get_tracer()
    tracer.enable()
    tracer.reset()
    try:
        index.knn_queries(queries, k)
        (batch,) = tracer.find("query.knn_batch")
        (seed,) = tracer.find("query.knn_seed")
    finally:
        tracer.disable()
        tracer.reset()
    assert seed.parent_id == batch.span_id
    assert seed.attrs == {"index": "ZM", "queries": 50, "k": 9}
    assert index.query_stats.points_scanned == 50 * 2 * k + sum(window_scanned)
    # 18 consecutive rows touch one block or two (block size 100); merged
    # ranges are charged once.
    seed_reads = index.store.block_reads - sum(window_reads)
    assert 1 <= seed_reads <= 2 * 50
