"""kNN rounds refine their windows as arrays (``indices/base.py``).

Each round of the expanding-window driver plans its windows from corner
arrays and refines them in one pass (``LearnedSpatialIndex.window_rows``)
instead of building a ``Rect`` per query and asking ``window_queries``.
That may change only what a round costs in wall time: the answers' bytes,
the ``QueryStats`` triple and the block reads must be those of the driver
it replaced, kept here as ``_rect_rounds``.  ML-Index's annulus rounds
rank with the shared helper and refine in groups of queries; they are held
to their earlier one-pass form, kept here as ``_ml_rounds``.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import FloodIndex, LISAIndex, MLIndex, RSMIIndex, ZMIndex, ml_index
from repro.indices.base import InsertRefused, QueryStats
from repro.perf.batching import merge_ranges
from repro.spatial.rect import Rect

CLASSES = (ZMIndex, LISAIndex, RSMIIndex, FloodIndex)


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
