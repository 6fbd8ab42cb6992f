"""kNN rounds against the drivers they replaced (``indices/base.py``,
``indices/ml_index.py``, ``indices/rsmi.py``).

Each round of the expanding-window driver plans its windows from corner
arrays and refines them in one pass instead of building a ``Rect`` per
query and asking ``window_queries``; the rounds then lost their per-round
bookkeeping: no re-check of the corners they build, the active queries
compacted as they retire, array methods for the NumPy wrappers.  ML-Index's
annulus rounds went the same way, and RSMI's window walk reads per-node
state derived once.  That may change only what a round costs in wall
time: the answers' bytes, the ``QueryStats`` triple and the block reads
must be those of the drivers they replaced, kept here as oracles:

- ``_rect_rounds`` (the ``Rect`` driver) and ``_ml_rounds`` (ML-Index's
  one-pass rounds), the older forms;
- ``_parent_rounds``, ``_parent_ml_rounds`` and ``_dfs_window_plan``, the
  two loops and RSMI's walk as they stood before the bookkeeping was cut.

RSMI seeds its first window from the query's leaf now, not from the global
density: its answers must be those of the density-seeded driver byte for
byte, while its counts (fewer windows and rows) are the one declared
difference.
"""

import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex, ml_index
from repro.indices.base import InsertRefused, LearnedSpatialIndex, QueryStats, rank_by_owner
from repro.perf.batching import merge_ranges
from repro.spatial.rect import Rect
from repro.storage.blocks import BlockStore

CLASSES = (ZMIndex, LISAIndex, RSMIIndex)


def _rect_rounds(index, pts, k):
    """The driver as it stood before: the same rounds, each asking
    ``window_queries`` for one ``Rect`` per active query and ranking the
    concatenated answers."""
    b = len(pts)
    reach = np.maximum(
        np.abs(pts - index.bounds.lo_array), np.abs(pts - index.bounds.hi_array)
    ).max(axis=1)
    max_side = np.maximum(
        float(index.bounds.extents.max()) * 2.0 + 1e-9,
        2.0 * np.where(np.isfinite(reach), reach, 0.0),
    )
    side = np.maximum(index._knn_first_sides(pts, k), max_side * 1e-9)
    results = [None] * b
    active = np.arange(b)
    while len(active):
        centre = pts[active]
        s = side[active]
        half = (s / 2.0)[:, None]
        cand = index.window_queries(
            [
                Rect(tuple(lo), tuple(hi))
                for lo, hi in zip((centre - half).tolist(), (centre + half).tolist())
            ]
        )
        counts = np.fromiter(map(len, cand), dtype=np.int64, count=len(cand))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        flat = np.concatenate(cand)
        owner = np.repeat(np.arange(len(active)), counts)
        diff = flat - centre[owner]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        order = np.lexsort((dist, owner))
        flat = flat[order]
        dist = dist[order]
        full = counts >= k
        kth = np.full(len(active), np.inf)
        kth[full] = dist[offsets[:-1][full] + k - 1]
        done = (kth <= s / 2.0) | ~(s <= max_side[active])
        ends = offsets[:-1] + np.minimum(counts, k)
        for qi, start, end in zip(
            active[done].tolist(), offsets[:-1][done].tolist(), ends[done].tolist()
        ):
            results[qi] = flat[start:end]
        active = active[~done]
        side[active] *= 2.0
    return results


def _ml_rounds(index, pts, k):
    """ML-Index's rounds as they stood before: every active query's annuli
    gathered, ranked by one ``lexsort`` and retired in one pass."""
    b = len(pts)
    index.query_stats.queries += b
    d = index.bounds.ndim
    volume = index.bounds.area()
    density = index.n_points / volume if volume > 0 else index.n_points
    radius = np.full(b, 0.5 * (k / max(density, 1e-12)) ** (1.0 / d))
    reach = np.maximum(
        np.abs(pts - index.bounds.lo_array), np.abs(pts - index.bounds.hi_array)
    )
    max_radius = np.sqrt(np.einsum("ij,ij->i", reach, reach)) + 1e-9
    refs = index.mapping.references
    m = len(refs)
    diff = pts[:, None, :] - refs[None, :, :]
    ref_dist = np.sqrt(np.einsum("bmd,bmd->bm", diff, diff))
    store = index.run.store
    results = [None] * b
    active = np.arange(b)
    while len(active):
        a = len(active)
        lo, hi = index._annulus_ranks(ref_dist[active], radius[active])
        counts = np.maximum(hi - lo, 0)
        index.query_stats.points_scanned += int(counts.sum())
        store.charge_block_reads(*merge_ranges(lo, hi))
        total = int(counts.sum())
        per_query = counts.reshape(a, m).sum(axis=1)
        if total:
            offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
            rows = np.arange(total) - np.repeat(offsets, counts) + np.repeat(lo, counts)
            owner = np.repeat(np.repeat(np.arange(a), m), counts.reshape(a, m).ravel())
            cand = store.points[rows]
            cdiff = cand - pts[active][owner]
            dist = np.sqrt(np.einsum("ij,ij->i", cdiff, cdiff))
            within = np.bincount(
                owner, weights=(dist <= radius[active][owner]), minlength=a
            )
            cand = cand[np.lexsort((dist, owner))]
        else:
            within = np.zeros(a)
        starts = np.concatenate(([0], np.cumsum(per_query)))
        still = []
        for j, qi in enumerate(active):
            c = int(per_query[j])
            s0 = int(starts[j])
            if within[j] >= k:
                results[qi] = cand[s0 : s0 + k].copy()
            elif radius[qi] > max_radius[qi]:
                results[qi] = cand[s0 : s0 + min(k, c)].copy() if c else np.empty((0, d))
            else:
                still.append(int(qi))
        if still:
            radius[still] *= 2.0
        active = np.array(still, dtype=np.int64)
    return results


def _charged(index, ask):
    """Answer bytes, ``QueryStats`` triple and block reads of one call."""
    index.query_stats = QueryStats()
    before = sum(run.store.block_reads for run in index.runs())
    with np.errstate(invalid="ignore"):
        got = ask()
    stats = index.query_stats
    return (
        [(rows.shape, rows.tobytes()) for rows in got],
        (stats.queries, stats.model_invocations, stats.points_scanned),
        sum(run.store.block_reads for run in index.runs()) - before,
    )


def _assert_same(index, queries, ks, before=_rect_rounds):
    for b in (1, 8, 384):
        for k in ks:
            pts = queries[:b]
            new = _charged(index, lambda: index.knn_queries(pts, k))
            old = _charged(index, lambda: before(index, pts, k))
            assert new == old, (index.name, b, k)


@pytest.fixture(scope="module")
def queries(knn_probes):
    """384 queries: the seed tests' probes with far and non-finite ones
    spread through every batch size."""
    odd = np.array(
        [[5.0, 5.0], [-3.0, 0.5], [np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf]]
    )
    pts = knn_probes.copy()
    pts[[0, 3, 5, 9, 200]] = odd
    return pts


@pytest.fixture(scope="module")
def finite_queries(knn_probes):
    """The same 384 queries with only the far ones among them."""
    pts = knn_probes.copy()
    pts[[0, 3]] = [[5.0, 5.0], [-3.0, 0.5]]
    return pts


def _build(cls, points):
    builder = ELSIModelBuilder(ELSIConfig(train_epochs=60), method="SP")
    return cls(builder=builder).build(points)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.name)
def test_rounds_equal_the_rect_driver(tied_points, queries, cls):
    index = _build(cls, tied_points)
    _assert_same(index, queries, (1, 25, 300, len(tied_points) + 5))


@pytest.mark.parametrize("cls", CLASSES[:3], ids=lambda c: c.name)
def test_rounds_equal_the_rect_driver_after_inserts(tied_points, queries, cls):
    """200 built-in insertions, a fifth of them outside the build bounds
    (widened scans, and RSMI's deepened leaves)."""
    index = _build(cls, tied_points)
    _insert_200(index)  # LISA keeps its grid: it refuses the outside ones
    _assert_same(index, queries, (1, 25, 300))


def _insert_200(index):
    """200 built-in insertions, a fifth of them outside the build bounds
    (ML-Index refuses those past its stretch; they stay out)."""
    rng = np.random.default_rng(4)
    extra = np.vstack([rng.random((160, 2)), rng.random((40, 2)) * 0.4 + 1.0])
    for p in extra:
        try:
            index.insert(p)
        except InsertRefused:
            pass


def test_ml_rounds_equal_the_one_pass_driver(tied_points, finite_queries):
    index = _build(MLIndex, tied_points)
    ks = (1, 25, 300, len(tied_points) + 5)
    _assert_same(index, finite_queries, ks, before=_ml_rounds)
    # Groups of a few queries each: the grouped path, charged per round.
    with mock.patch.object(ml_index, "_KNN_GROUP_ROWS", 700):
        _assert_same(index, finite_queries, ks, before=_ml_rounds)
    _insert_200(index)
    assert index._native_inserts > 0
    _assert_same(index, finite_queries, (1, 25, 300), before=_ml_rounds)


# ----------------------------------------------------------------------
# The parent's drivers, as they stood before their bookkeeping was cut
# ----------------------------------------------------------------------
def _parent_rounds(index, pts, k, first_sides=None):
    """The shared expanding-window loop: every round gathers its active
    queries from the full arrays and asks ``window_rows``, which checks the
    corners it is given."""
    b = len(pts)
    reach = np.maximum(
        np.abs(pts - index.bounds.lo_array), np.abs(pts - index.bounds.hi_array)
    ).max(axis=1)
    max_side = np.maximum(
        float(index.bounds.extents.max()) * 2.0 + 1e-9,
        2.0 * np.where(np.isfinite(reach), reach, 0.0),
    )
    first = (first_sides or index._knn_first_sides)(pts, k)
    side = np.maximum(first, max_side * 1e-9)
    results = [None] * b
    active = np.arange(b)
    while len(active):
        centre = pts[active]
        s = side[active]
        half = (s / 2.0)[:, None]
        flat, counts = index.window_rows(centre - half, centre + half)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        owner = np.repeat(np.arange(len(active)), counts)
        diff = flat - np.repeat(centre, counts, axis=0)
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        order = rank_by_owner(owner, dist, len(active))
        flat = flat.take(order, axis=0)
        dist = dist[order]
        full = counts >= k
        kth = np.full(len(active), np.inf)
        kth[full] = dist[offsets[:-1][full] + k - 1]
        done = (kth <= s / 2.0) | ~(s <= max_side[active])
        ends = offsets[:-1] + np.minimum(counts, k)
        for qi, start, end in zip(
            active[done].tolist(), offsets[:-1][done].tolist(), ends[done].tolist()
        ):
            results[qi] = flat[start:end]
        active = active[~done]
        side[active] *= 2.0
    return results


def _parent_norms(diff):
    norm = np.sqrt(np.einsum("...d,...d->...", diff, diff))
    over = np.isinf(norm) & np.isfinite(diff).all(axis=-1)
    if over.any():
        big = diff[over]
        scale = np.abs(big).max(axis=-1, keepdims=True)
        unit = big / scale
        norm[over] = scale[:, 0] * np.sqrt(np.einsum("ij,ij->i", unit, unit))
    return norm


def _parent_annulus_ranks(index, ref_dist, radius):
    keys = index.run.store.keys
    partition = np.arange(index.mapping.n_references)
    base = partition * index.mapping.stretch
    caps = np.nextafter((partition + 1.0) * index.mapping.stretch, -np.inf)
    r = radius[:, None]
    key_lo = base + np.maximum(0.0, ref_dist - r)
    key_hi = np.minimum(base + ref_dist + r, caps)
    lo = np.searchsorted(keys, key_lo.ravel(), side="left")
    hi = np.searchsorted(keys, key_hi.ravel(), side="right")
    return lo, hi


def _parent_ml_rounds(index, pts, k, group_rows=ml_index._KNN_GROUP_ROWS):
    """ML-Index's grouped annulus rounds: every round gathers its active
    queries' distances and radii from the full arrays."""
    b = len(pts)
    index.query_stats.queries += b
    d = index.bounds.ndim
    volume = index.bounds.area()
    density = index.n_points / volume if volume > 0 else index.n_points
    radius = np.full(b, 0.5 * (k / max(density, 1e-12)) ** (1.0 / d))
    reach = np.maximum(
        np.abs(pts - index.bounds.lo_array), np.abs(pts - index.bounds.hi_array)
    )
    reach = np.where(np.isfinite(reach), reach, 0.0)
    max_radius = _parent_norms(reach) + 1e-9
    refs = index.mapping.references
    m = len(refs)
    ref_dist = _parent_norms(pts[:, None, :] - refs[None, :, :])
    store = index.run.store
    results = [None] * b
    active = np.arange(b)
    while len(active):
        lo, hi = _parent_annulus_ranks(index, ref_dist[active], radius[active])
        counts = np.maximum(hi - lo, 0)
        index.query_stats.points_scanned += int(counts.sum())
        store.charge_block_reads(*_parent_merge_ranges(lo, hi))
        per_query = counts.reshape(len(active), m).sum(axis=1)
        starts = np.cumsum(per_query) - per_query
        offsets = np.cumsum(counts) - counts
        done = np.zeros(len(active), dtype=bool)
        cuts = np.flatnonzero(np.diff(starts // group_rows)) + 1
        for j0, j1 in zip([0, *cuts.tolist()], [*cuts.tolist(), len(active)]):
            group, n_cand = active[j0:j1], per_query[j0:j1]
            e0, e1 = j0 * m, j1 * m
            rows = np.arange(offsets[e0], offsets[e0] + n_cand.sum())
            rows -= np.repeat(offsets[e0:e1] - lo[e0:e1], counts[e0:e1])
            cand = store.points.take(rows, axis=0)
            cdiff = cand - np.repeat(pts[group], n_cand, axis=0)
            dist = np.sqrt(np.einsum("ij,ij->i", cdiff, cdiff))
            owner = np.repeat(np.arange(len(group)), n_cand)
            order = rank_by_owner(owner, dist, len(group))
            cand = cand.take(order, axis=0)
            first = starts[j0:j1] - starts[j0]
            full = n_cand >= k
            kth = np.full(len(group), np.inf)
            kth[full] = dist[order[first[full] + k - 1]]
            r = radius[group]
            out = (kth <= r) | ~(r <= max_radius[group])
            ends = first + np.minimum(n_cand, k)
            for qi, start, end in zip(
                group[out].tolist(), first[out].tolist(), ends[out].tolist()
            ):
                results[qi] = cand[start:end].copy()
            done[j0:j1] = out
        active = active[~done]
        radius[active] *= 2.0
    return results


def _dfs_window_plan(self, win_lo, win_hi):
    """RSMI's window walk: every visit gathers its windows' corners twice,
    tests the box with two comparisons, clips with ``np.clip``'s bounds
    and masks every child slot."""
    leaves = []
    empty = np.empty(0, dtype=np.int64)
    run, lo_parts, hi_parts, owner = [empty], [empty], [empty], [empty]
    stack = [(self.root, np.arange(len(win_lo)))]
    while stack:
        node, active = stack.pop()
        blo, bhi = node.bounds.lo_array, node.bounds.hi_array
        hit = np.all(win_lo[active] <= bhi, axis=1) & np.all(blo <= win_hi[active], axis=1)
        active = active[hit]
        w = len(active)
        if w == 0:
            continue
        lo = np.maximum(win_lo[active], blo)
        hi = np.minimum(win_hi[active], bhi)
        z = self._node_keys(np.vstack([lo, hi]), node.bounds)
        self.query_stats.model_invocations += 2 * w
        lo_all, hi_all = node.model.search_ranges(z)
        pos_lo, pos_hi = lo_all[:w], hi_all[w:]
        if node.is_leaf:
            pos_lo, pos_hi = node.run.scan_bounds(pos_lo, pos_hi)
            run.append(np.full(w, len(leaves)))
            lo_parts.append(pos_lo)
            hi_parts.append(pos_hi)
            owner.append(active)
            leaves.append(node.run)
            continue
        n = max(node.n, 1)
        b_lo = np.clip((pos_lo * self.fanout) // n, 0, self.fanout - 1)
        b_hi = np.clip(((pos_hi - 1) * self.fanout) // n, 0, self.fanout - 1)
        for b in range(self.fanout - 1, -1, -1):
            child = node.children[b]
            if child is None:
                continue
            sub = active[(b_lo <= b) & (b <= b_hi)]
            if len(sub):
                stack.append((child, sub))
    return leaves, *map(np.concatenate, (run, lo_parts, hi_parts, owner))


def _parent_merge_ranges(lo, hi):
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if len(lo) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    running_end = np.maximum.accumulate(hi)
    new_group = np.empty(len(lo), dtype=bool)
    new_group[0] = True
    new_group[1:] = lo[1:] > running_end[:-1]
    starts = lo[new_group]
    group_last = np.append(np.flatnonzero(new_group)[1:] - 1, len(lo) - 1)
    return starts, running_end[group_last]


def _parent_charge(store, starts, ends):
    starts = np.clip(np.asarray(starts, dtype=np.int64), 0, len(store.keys))
    ends = np.clip(np.asarray(ends, dtype=np.int64), 0, len(store.keys))
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]
    if len(starts) == 0:
        return 0
    return int(((ends - 1) // store.block_size - starts // store.block_size + 1).sum())


# ----------------------------------------------------------------------
# The queries and batches the parent's drivers are held to
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def edge_queries(tied_points, knn_probes):
    """384 queries led by the edges: far outside the bounds, non-finite,
    two coincident queries on a stored point that is itself stored twice,
    and a lattice point with four equidistant neighbours; the rest stored
    points, uniform points and points around the bounds, with the edges
    again inside the second 128-query batch."""
    nan, inf = np.nan, np.inf
    odd = np.array(
        [[5.0, 5.0], [-3.0, 0.5], [nan, 0.5], [inf, 0.5], [0.5, -inf],
         tied_points[0], tied_points[0], tied_points[-55]]
    )
    pts = knn_probes.copy()
    pts[:8] = odd
    pts[[130, 150, 170, 190, 200, 210, 220, 230]] = odd
    return pts


def _batches(pts):
    """b = 1 on each of the first twelve queries, b = 2 over them, and two
    batches of 128."""
    return (
        [pts[i : i + 1] for i in range(12)]
        + [pts[i : i + 2] for i in range(0, 12, 2)]
        + [pts[:128], pts[128:256]]
    )


def _assert_parent_equal(index, queries, before, ks=None):
    n = index.n_points
    for k in ks or (1, 25, n + 3):
        for pts in _batches(queries):
            new = _charged(index, lambda: index.knn_queries(pts, k))
            old = _charged(index, lambda: before(index, pts, k))
            assert new == old, (index.name, len(pts), k)


def _parent_of(index):
    """The parent's driver for ``index``, its RSMI walk patched in."""
    if isinstance(index, MLIndex):
        return _parent_ml_rounds

    def rounds(ix, pts, k):
        if not isinstance(ix, RSMIIndex):
            return _parent_rounds(ix, pts, k)
        with mock.patch.object(ix, "window_plan", types.MethodType(_dfs_window_plan, ix)):
            return _parent_rounds(ix, pts, k)

    return rounds


ALL = (ZMIndex, MLIndex, LISAIndex, RSMIIndex)


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.name)
def test_rounds_equal_the_parent_driver(tied_points, edge_queries, cls):
    """Answers, ``QueryStats`` and block reads of every batch, against the
    parent's loop (and RSMI's walk), the first window held fixed."""
    index = _build(cls, tied_points)
    _assert_parent_equal(index, edge_queries, _parent_of(index))


@pytest.mark.parametrize("cls", ALL[:4], ids=lambda c: c.name)
def test_rounds_equal_the_parent_driver_after_inserts(tied_points, edge_queries, cls):
    index = _build(cls, tied_points)
    _insert_200(index)
    assert sum(run.inserts for run in index.runs()) > 0
    _assert_parent_equal(index, edge_queries, _parent_of(index), ks=(1, 25))


def test_ml_small_groups_equal_the_parent_driver(tied_points, edge_queries):
    index = _build(MLIndex, tied_points)
    with mock.patch.object(ml_index, "_KNN_GROUP_ROWS", 700):
        _assert_parent_equal(
            index, edge_queries, lambda ix, p, k: _parent_ml_rounds(ix, p, k, 700)
        )


@pytest.mark.parametrize("inserted", [False, True], ids=["built", "inserted"])
def test_rsmi_answers_equal_the_density_seeded_parent(tied_points, edge_queries, inserted):
    """The leaf seed changes what a call costs, never what it answers: the
    parent's whole driver — density-seeded first window, loop and walk —
    gives every answer byte for byte.  Its counts are the declared
    difference; the seed's rounds are fewer."""
    index = _build(RSMIIndex, tied_points)
    if inserted:
        _insert_200(index)
    density = types.MethodType(LearnedSpatialIndex._knn_first_sides, index)
    windows = {"new": 0, "old": 0}
    for k in (1, 25, index.n_points + 3):
        for pts in _batches(edge_queries):
            index.query_stats.reset()
            with np.errstate(invalid="ignore"):
                new = index.knn_queries(pts, k)
            windows["new"] += index.query_stats.queries
            index.query_stats.reset()
            with np.errstate(invalid="ignore"), mock.patch.object(
                index, "window_plan", types.MethodType(_dfs_window_plan, index)
            ):
                old = _parent_rounds(index, pts, k, first_sides=density)
            windows["old"] += index.query_stats.queries
            assert [r.tobytes() for r in new] == [r.tobytes() for r in old], (len(pts), k)
            assert [r.shape for r in new] == [r.shape for r in old]
    assert windows["new"] < windows["old"]


@pytest.mark.parametrize("inserted", [False, True], ids=["built", "inserted"])
def test_rsmi_window_plan_equals_the_dfs(tied_points, inserted):
    """The walk on per-node derived state against the DFS it replaced, on a
    deeper tree (300-point leaves) and after insertions that open
    single-point leaves and rebuild an overflowing one: every plan entry,
    ``model_invocations`` and every node model's ``invocations``."""
    builder = ELSIModelBuilder(ELSIConfig(train_epochs=30), method="SP")
    index = RSMIIndex(builder=builder, leaf_capacity=300).build(tied_points)
    if inserted:
        rng = np.random.default_rng(9)
        for p in np.vstack([rng.random((40, 2)) * 0.05 + 0.3, rng.random((30, 2)) * 3 - 1]):
            index.insert(p)
        # One region past twice a leaf's capacity: its leaf is rebuilt.
        for p in tied_points[5] + rng.normal(0.0, 1e-3, (700, 2)):
            index.insert(p)
    assert index.depth() >= 2
    rng = np.random.default_rng(3)
    centres = np.vstack([tied_points[rng.integers(0, len(tied_points), 200)], rng.random((50, 2)) * 3 - 1])
    sides = rng.choice([0.0, 1e-3, 0.02, 0.2, 5.0], (len(centres), 1))
    win_lo, win_hi = centres - sides / 2, centres + sides / 2
    nan, inf = np.nan, np.inf
    win_lo[:6] = [[-inf, -inf], [nan, 0.2], [0.1, 0.1], [inf, 0.0], [-1.0, -1.0], [0.3, 0.3]]
    win_hi[:6] = [[inf, inf], [0.5, 0.5], [0.1, 0.1], [inf, 1.0], [2.0, 2.0], [0.3, 0.3]]
    models = [node.model for node in index._nodes()]
    for b in (1, 2, 128):
        for start in range(0, 256 if b == 128 else 12, b):
            lo, hi = win_lo[start : start + b], win_hi[start : start + b]
            out = []
            for plan in (index.window_plan, types.MethodType(_dfs_window_plan, index)):
                index.query_stats.reset()
                before = [m.invocations for m in models]
                with np.errstate(invalid="ignore"):
                    runs, *arrays = plan(lo, hi)
                out.append((
                    [id(r) for r in runs],
                    [(a.dtype.str, a.tobytes()) for a in arrays],
                    index.query_stats.model_invocations,
                    [m.invocations - x for m, x in zip(models, before)],
                ))
            assert out[0] == out[1], (b, start)


@st.composite
def _ranges(draw):
    n = draw(st.integers(0, 40))
    lo = draw(st.lists(st.integers(-20, 600), min_size=n, max_size=n))
    width = draw(st.lists(st.integers(-5, 120), min_size=n, max_size=n))
    return np.array(lo, dtype=np.int64), np.array(lo, dtype=np.int64) + width


@settings(max_examples=300, deadline=None)
@given(case=_ranges(), size=st.sampled_from([0, 1, 99, 100, 101, 550]))
def test_merged_ranges_and_charges_equal_the_parent(case, size):
    """The round helpers: merged groups and block reads charged, equal to
    the parent's (``np.clip`` bounds and the appended group ends)."""
    lo, hi = case
    new = merge_ranges(lo, hi)
    old = _parent_merge_ranges(lo, hi)
    assert [a.tolist() for a in new] == [a.tolist() for a in old]
    assert all(a.dtype == np.int64 for a in new)
    store = BlockStore(np.zeros((size, 2)), np.arange(size, dtype=np.float64), block_size=100)
    assert store.charge_block_reads(lo, hi) == _parent_charge(store, lo, hi)
    assert store.charge_block_reads(*new) == _parent_charge(store, *old)
