"""Point lookups against set membership for every index, through both
spellings (a per-query call is a batch of one), the lo-clamp regression
(inserts near rank 0), the ``QueryStats`` additivity rule, and probe-order
independence: the membership kernel visits a batch in key order, so a
shuffled batch must answer and charge exactly what the batch does.  And
the flat window kernel of kNN rounds against the per-window kernel, the
kNN drivers' candidate ranking against ``np.lexsort``, and the narrowed
grouping sort against the stable ``int64`` one."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import FloodIndex, LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.indices.base import QueryStats, argsort_ids, group_by, rank_by_owner
from repro.perf import batching
from repro.perf.batching import (
    batch_point_membership,
    batch_window_refine,
    flat_window_refine,
)
from repro.spatial.rect import Rect
from repro.storage.blocks import BlockStore
from tests.brute import point_truth

INDEX_CLASSES = {
    cls.name: cls for cls in (ZMIndex, MLIndex, LISAIndex, FloodIndex, RSMIIndex)
}
SUPPORTS_INSERT = {"ZM", "ML", "LISA", "RSMI"}


@pytest.fixture(scope="module")
def built(osm_points):
    config = ELSIConfig(train_epochs=80)
    return {
        name: cls(builder=ELSIModelBuilder(config, method="SP")).build(osm_points)
        for name, cls in INDEX_CLASSES.items()
    }


def _mixed_workload(points, rng):
    """Hits, far misses, and near-misses (indexed coords with one nudged)."""
    near = points[100:150].copy()
    near[:, 1] += 1e-7
    return np.vstack([points[::13], rng.random((60, 2)) * 2.0, near])


@pytest.mark.parametrize("name", sorted(INDEX_CLASSES))
def test_batch_equals_scalar_loop(built, osm_points, name):
    index = built[name]
    batch = _mixed_workload(osm_points, np.random.default_rng(11))
    expected = point_truth(osm_points, batch)
    np.testing.assert_array_equal(index.point_queries(batch), expected)
    np.testing.assert_array_equal([index.point_query(p) for p in batch], expected)
    # Sanity: the workload actually mixes hits and misses.
    assert expected.any() and not expected.all()


@pytest.mark.parametrize("name", sorted(SUPPORTS_INSERT))
def test_batch_equals_scalar_after_inserts(osm_points, name):
    config = ELSIConfig(train_epochs=80)
    index = INDEX_CLASSES[name](
        builder=ELSIModelBuilder(config, method="SP")
    ).build(osm_points)
    rng = np.random.default_rng(23)
    extra = rng.random((30, 2))
    for p in extra:
        index.insert(p)
    batch = np.vstack([extra, _mixed_workload(osm_points, rng)])
    expected = point_truth(np.vstack([osm_points, extra]), batch)
    np.testing.assert_array_equal(index.point_queries(batch), expected)
    np.testing.assert_array_equal([index.point_query(p) for p in batch], expected)
    assert expected[:30].all()  # inserted points are all found


@pytest.mark.parametrize("name", ["ZM", "ML"])
def test_scalar_lo_clamp_with_inserts_near_rank_zero(osm_points, name):
    """Regression: ``lo -= native_inserts`` used to go negative for keys
    predicted near rank 0, corrupting the points-scanned accounting."""
    config = ELSIConfig(train_epochs=80)
    index = INDEX_CLASSES[name](
        builder=ELSIModelBuilder(config, method="SP")
    ).build(osm_points)
    order = np.argsort(index.store.keys, kind="stable")
    smallest = index.store.points[order[:5]]
    for p in smallest + 1e-9:  # land next to the smallest keys
        index.insert(p)

    before = index.query_stats.points_scanned
    for p in smallest:
        assert index.point_query(p)
    scanned = index.query_stats.points_scanned - before
    # A negative `lo` would overstate the scan by up to `inserts` points
    # per query relative to what the store can actually return.
    assert 0 <= scanned <= 5 * len(index.store)
    assert index.point_queries(smallest).all()


def _charge(index, call) -> tuple[int, int, int]:
    """``QueryStats`` charged by one call, on a fresh counter."""
    index.query_stats = QueryStats()
    call()
    stats = index.query_stats
    return stats.queries, stats.model_invocations, stats.points_scanned


def test_batch_stats_accounting(built, osm_points):
    """``QueryStats`` is additive: one call with ``b`` queries charges the
    sum of ``b`` calls with one query each — for every index and query
    kind, ``queries``, ``model_invocations`` and ``points_scanned`` alike —
    and the two rule-2 cases charge no model at all."""
    rng = np.random.default_rng(3)
    probes = _mixed_workload(osm_points, rng)[::4]
    windows = [
        Rect.centered(osm_points[i], float(rng.uniform(0.01, 0.2)))
        for i in rng.integers(0, len(osm_points), 9)
    ] + [Rect((2.0, 2.0), (3.0, 3.0))]
    queries = np.vstack([osm_points[::250], rng.random((3, 2))])
    kinds = {
        "point": (probes, lambda ix, items: ix.point_queries(items)),
        "window": (windows, lambda ix, items: ix.window_queries(items)),
        "knn": (queries, lambda ix, items: ix.knn_queries(items, 6)),
    }
    for name, index in built.items():
        for kind, (items, ask) in kinds.items():
            whole = _charge(index, lambda: ask(index, items))
            singles = [
                _charge(index, lambda: ask(index, items[i : i + 1]))
                for i in range(len(items))
            ]
            assert whole == tuple(map(sum, zip(*singles))), (name, kind)
            assert whole[0] >= len(items) and whole[2] > 0, (name, kind)
            if (name, kind) in {("ZM", "window"), ("Flood", "window"), ("ML", "knn")}:
                assert whole[1] == 0, (name, kind)  # boundaries by searchsorted
            elif kind == "point" and name in ("ZM", "ML", "LISA"):
                assert whole[1] == len(items), (name, kind)  # one key, one prediction


def _scan_each(store, lo, hi, keys, points, atol) -> np.ndarray:
    """The oracle: one ``store.scan`` and the predicate per probe."""
    found = []
    for a, b, key, point in zip(lo.tolist(), hi.tolist(), keys, points):
        pts, stored, _ids = store.scan(a, b)
        match = np.abs(stored - float(key)) <= atol
        found.append(bool((match & (pts == point).all(axis=1)).any()))
    return np.array(found)


@pytest.mark.parametrize("key_dtype", [np.float64])
@pytest.mark.parametrize("atol", [0.0, 1e-3])
@pytest.mark.parametrize("duplicates", [False, True])
def test_membership_kernel_on_shuffled_probes(key_dtype, atol, duplicates):
    """Shuffled probes get the per-probe scan's answers and charge the
    block reads of the same batch unshuffled: hits, duplicate keys with
    other coordinates, rows left outside their probe's ``[lo, hi)``,
    ranges past either end of the store and repeated probes."""
    rng = np.random.default_rng(7)
    data = rng.random((3000, 2))

    def key_of(pts):
        x = np.floor(pts[:, 0] * 700) / 700 if duplicates else pts[:, 0]
        return x.astype(key_dtype)

    store = BlockStore(data, key_of(data), block_size=16)
    shared_key = data[rng.integers(0, 3000, 40)].copy()
    shared_key[:, 1] = rng.random(40)  # a stored row's key, other coordinates
    probes = np.vstack([
        data[rng.integers(0, 3000, 300)], shared_key, rng.random((60, 2)),
    ])
    probes = np.vstack([probes, probes[:25]])
    keys = key_of(probes)
    rank = np.searchsorted(store.keys, keys)
    lo = rank - rng.integers(-3, 40, len(probes))  # some start past the row
    hi = rank + rng.integers(-3, 40, len(probes))  # some stop before it
    lo[:5], hi[-5:] = -50, len(store) + 50

    want = _scan_each(store, lo, hi, keys, probes, atol)
    assert want.any() and not want.all()
    store.reset_block_reads()
    got = batch_point_membership(store, lo, hi, keys, probes, atol=atol)
    reads = store.block_reads
    np.testing.assert_array_equal(got, want)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(len(probes))
        store.reset_block_reads()
        found = batch_point_membership(
            store, lo[perm], hi[perm], keys[perm], probes[perm], atol=atol
        )
        np.testing.assert_array_equal(found, want[perm])
        assert store.block_reads == reads


def _block_reads(index) -> int:
    return sum(run.store.block_reads for run in index.runs())


@pytest.mark.parametrize("name", sorted(INDEX_CLASSES))
def test_window_rows_is_window_queries_concatenated(built, osm_points, name):
    """``window_rows`` over corner arrays: the concatenation of
    ``window_queries``' arrays byte for byte, their lengths as counts, and
    the same ``QueryStats`` triple and block reads — for no window, a lone
    window (the one-range slice) and batches of small and large ones."""
    index = built[name]
    rng = np.random.default_rng(13)
    centres = osm_points[rng.integers(0, len(osm_points), 40)]
    sides = rng.choice([0.005, 0.02, 0.1, 0.4], size=40)
    windows = [Rect.centered(c, float(s)) for c, s in zip(centres, sides)]
    windows.append(Rect((2.0, 2.0), (3.0, 3.0)))  # outside the data

    def ask(call):
        index.query_stats = QueryStats()
        before = _block_reads(index)
        out = call()
        stats = index.query_stats
        charged = (stats.queries, stats.model_invocations, stats.points_scanned)
        return out, charged, _block_reads(index) - before

    for batch in ([], windows[:1], windows[1:2], windows[-1:], windows[:9], windows):
        lo = np.array([w.lo for w in batch], dtype=np.float64).reshape(-1, 2)
        hi = np.array([w.hi for w in batch], dtype=np.float64).reshape(-1, 2)
        (rows, counts), charged, reads = ask(lambda: index.window_rows(lo, hi))
        parts, charged_q, reads_q = ask(lambda: index.window_queries(batch))
        want = np.concatenate([np.empty((0, 2)), *parts])
        assert rows.dtype == want.dtype and rows.shape == want.shape, len(batch)
        assert rows.tobytes() == want.tobytes(), len(batch)
        assert counts.dtype == np.int64 and counts.tolist() == [len(p) for p in parts]
        assert (charged, reads) == (charged_q, reads_q), len(batch)


@pytest.mark.parametrize("name", sorted(INDEX_CLASSES))
def test_point_batch_is_probe_order_independent(built, osm_points, name):
    """A batch and a permutation of it: permuted answers, equal
    ``QueryStats`` and equal block reads, for every index."""
    index = built[name]
    batch = _mixed_workload(osm_points, np.random.default_rng(5))
    batch = np.vstack([batch, batch[:20]])  # repeated probes: equal keys

    def ask(probes):
        index.query_stats = QueryStats()
        before = _block_reads(index)
        found = index.point_queries(probes)
        stats = index.query_stats
        charged = (stats.queries, stats.model_invocations, stats.points_scanned)
        return found, charged, _block_reads(index) - before

    found, charged, reads = ask(batch)
    np.testing.assert_array_equal(found, point_truth(osm_points, batch))
    assert reads > 0
    for seed in range(2):
        perm = np.random.default_rng(seed).permutation(len(batch))
        found_p, charged_p, reads_p = ask(batch[perm])
        np.testing.assert_array_equal(found_p, found[perm])
        assert charged_p == charged and reads_p == reads


@pytest.fixture(scope="module")
def deep_rsmi(osm_points):
    """An RSMI deepened by skewed inserts: overflowing leaves rebuilt
    locally into deeper subtrees, singleton leaves opened in empty child
    slots, and empty slots left over.  Returns it and every stored point."""
    index = RSMIIndex(
        builder=ELSIModelBuilder(ELSIConfig(train_epochs=60), method="SP"),
        leaf_capacity=30,
    ).build(osm_points[:400])
    rng = np.random.default_rng(2)
    extra = np.vstack([
        osm_points[0] + rng.normal(0.0, 2e-3, (300, 2)), rng.random((60, 2))
    ])
    for p in extra:
        index.insert(p)
    return index, np.vstack([osm_points[:400], extra])


def _hops(index, q) -> int:
    """The model invocations one probe costs: one per node it visits."""
    node, hops = index.root, 1
    while not node.is_leaf:
        key = index._node_keys(q[None, :], node.bounds)
        node = node.children[int(index._route(node.model, key, node.n)[0])]
        if node is None:
            break
        hops += 1
    return hops


def test_rsmi_batch_points_on_a_deepened_tree(deep_rsmi):
    """RSMI's level-wise descent: a batch of hits, misses, duplicates and
    points outside the root bounds equals brute force and the same probes
    asked one at a time, charges their sum, one model invocation per node
    each probe visits, and reads no more blocks than they do."""
    index, stored = deep_rsmi
    nodes = list(index._nodes())
    assert index.depth() >= 5
    assert any(node.is_leaf and len(node.run.store) == 1 for node in nodes)
    assert any(child is None for node in nodes for child in node.children)
    rng = np.random.default_rng(0)
    lo, hi = index.bounds.lo_array, index.bounds.hi_array
    probes = np.vstack([
        stored[rng.integers(0, len(stored), 300)],
        lo + rng.random((4000, 2)) * (hi - lo),
        hi + rng.random((20, 2)),
        lo - rng.random((20, 2)),
    ])
    probes = np.vstack([probes, probes[::40]])
    truth = point_truth(stored, probes)
    assert truth.any() and not truth.all()
    _, run, _ = index.point_plan(probes)
    assert (run < 0).any()  # some probes end in an empty child slot

    before = _block_reads(index)
    found = []
    whole = _charge(index, lambda: found.append(index.point_queries(probes)))
    batch_reads = _block_reads(index) - before
    np.testing.assert_array_equal(found[0], truth)
    before = _block_reads(index)
    singles = [
        _charge(index, lambda: found.append(index.point_query(p))) for p in probes
    ]
    np.testing.assert_array_equal(found[1:], truth)
    assert whole == tuple(map(sum, zip(*singles)))
    assert whole[:2] == (len(probes), sum(_hops(index, p) for p in probes))
    assert batch_reads <= _block_reads(index) - before


# ----------------------------------------------------------------------
# The flat window kernel (kNN rounds) against the per-window kernel
# ----------------------------------------------------------------------
_GRID = st.integers(0, 6).map(lambda i: i / 6.0)  # coarse: duplicate rows


@st.composite
def _window_plans(draw):
    """A store (duplicate rows included) and a plan over it: per window
    zero to three scan runs, each ``[lo, hi)`` possibly empty, inverted or
    past either end of the store; windows random, degenerate (one stored
    point), empty (``lo > hi``) or covering everything."""
    n = draw(st.integers(0, 40))
    data = draw(arrays(np.float64, (n, 2), elements=_GRID))
    keys = data[:, 0] * 7.0 + data[:, 1]
    store = BlockStore(data, keys, block_size=draw(st.integers(1, 6)))
    w = draw(st.integers(1, 6))
    per = draw(st.lists(st.integers(0, 3), min_size=w, max_size=w))
    ranks = st.integers(-4, n + 4)
    lo = np.array([draw(ranks) for _ in range(sum(per))], dtype=np.int64)
    hi = np.array([draw(ranks) for _ in range(sum(per))], dtype=np.int64)
    win_lo, win_hi = np.empty((w, 2)), np.empty((w, 2))
    for i in range(w):
        a = np.array([draw(_GRID), draw(_GRID)])
        b = np.array([draw(_GRID), draw(_GRID)])
        win_lo[i], win_hi[i] = np.minimum(a, b), np.maximum(a, b)
        kind = draw(st.sampled_from(["box", "point", "empty", "all"]))
        if kind == "point" and n:
            win_lo[i] = win_hi[i] = data[draw(st.integers(0, n - 1))]
        elif kind == "empty":
            win_lo[i], win_hi[i] = np.maximum(a, b) + 0.1, np.minimum(a, b)
        elif kind == "all":
            win_lo[i], win_hi[i] = -1.0, 2.0
    return store, lo, hi, win_lo, win_hi, np.repeat(np.arange(w), per)


@settings(max_examples=300, deadline=None)
@given(
    plan=_window_plans(),
    flat_max=st.sampled_from([0, 3, 1024]),
    chunk=st.sampled_from([1, 5, 1 << 15]),
)
def test_flat_window_kernel_equals_per_window_kernel(plan, flat_max, chunk):
    """``flat_window_refine`` returns the per-window kernel's arrays
    concatenated, byte for byte, with their lengths as counts, and charges
    the same block reads: on its gather path in one chunk or many, and on
    its slice path (``flat_max`` 0 sends every plan there)."""
    store, lo, hi, win_lo, win_hi, owner = plan
    want = batch_window_refine(store, lo, hi, win_lo, win_hi, owner)
    reads = store.block_reads
    store.reset_block_reads()
    with mock.patch.multiple(
        batching, _FLAT_MAX_ROWS_PER_WINDOW=flat_max, _FLAT_CHUNK_ROWS=chunk
    ):
        found, counts = flat_window_refine(store, lo, hi, win_lo, win_hi, owner)
    assert found.dtype == np.float64 and found.shape == (int(counts.sum()), 2)
    assert found.tobytes() == np.concatenate(want).tobytes()
    assert counts.tolist() == [len(rows) for rows in want]
    assert store.block_reads == reads


# ----------------------------------------------------------------------
# The kNN candidate ranking against the stable lexsort it replaced
# ----------------------------------------------------------------------
@st.composite
def _ranked_candidates(draw):
    """Owners (any order; some queries own nothing) and distances with
    heavy exact ties, NaN, +inf and 0.0; one owner, no candidates, and
    more owners than 16 bits hold (owner ids on both sides of 65 536)."""
    owners = draw(st.sampled_from([1, 2, 5, 40, 70_000]))
    ids = st.integers(0, owners - 1)
    if owners > 1 << 16:
        ids = st.sampled_from([0, 1, 65_535, 65_536, 65_537, owners - 1]) | ids
    m = draw(st.integers(0, 120))
    owner = np.array([draw(ids) for _ in range(m)], dtype=np.int64)
    dist = draw(
        arrays(
            np.float64, m,
            elements=st.sampled_from([0.0, 0.5, 1.0, np.nan, np.inf])
            | st.floats(0.0, 2.0),
        )
    )
    return owner, dist, owners


@settings(max_examples=400, deadline=None)
@given(case=_ranked_candidates())
def test_rank_by_owner_equals_lexsort(case):
    """Owner-major, distance-minor, NaN last, exact ties in scan order:
    the permutation ``np.lexsort((dist, owner))`` gives, element for
    element."""
    owner, dist, owners = case
    got = rank_by_owner(owner, dist, owners)
    assert got.tolist() == np.lexsort((dist, owner)).tolist()


@st.composite
def _ids(draw):
    """Ids in ``[0, n)`` for ``n`` either side of 8 and 16 bits, with the
    edge ids often."""
    n = draw(st.sampled_from([1, 2, 9, 256, 257, 65_536, 65_537, 100_000]))
    edges = st.sampled_from(sorted({0, n - 1, min(255, n - 1), min(256, n - 1)}))
    m = draw(st.integers(0, 300))
    return draw(arrays(np.int64, m, elements=edges | st.integers(0, n - 1))), n


@settings(max_examples=300, deadline=None)
@given(case=_ids())
def test_argsort_ids_is_the_stable_argsort(case):
    """Narrowed to ``uint8`` / ``uint16`` or not, the ids' permutation is
    the stable ``argsort`` of the ``int64`` ids, ties in position order;
    ``group_by``'s shifted ``-1`` ids included."""
    ids, n = case
    m = len(ids)
    assert argsort_ids(ids, n).tolist() == np.argsort(ids, kind="stable").tolist()
    groups = {i: np.arange(m)[rows].tolist() for i, rows in group_by(ids - 1, n)}
    held = np.unique(ids[ids > 0] - 1).tolist()
    assert groups == {i: np.flatnonzero(ids - 1 == i).tolist() for i in held}
