"""kNN rounds refine their windows as arrays (``indices/base.py``).

Each round of the expanding-window driver plans its windows from corner
arrays and refines them in one pass (``LearnedSpatialIndex._window_rows``)
instead of building a ``Rect`` per query and asking ``window_queries``.
That may change only what a round costs in wall time: the answers' bytes,
the ``QueryStats`` triple and the block reads must be those of the driver
it replaced, kept here as ``_rect_rounds``.
"""

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import FloodIndex, LISAIndex, RSMIIndex, ZMIndex
from repro.indices.base import InsertRefused, QueryStats
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


def _assert_same(index, queries, ks):
    for b in (1, 8, 384):
        for k in ks:
            pts = queries[:b]
            new = _charged(index, lambda: index.knn_queries(pts, k))
            old = _charged(index, lambda: _rect_rounds(index, pts, k))
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
    rng = np.random.default_rng(4)
    extra = np.vstack([rng.random((160, 2)), rng.random((40, 2)) * 0.4 + 1.0])
    for p in extra:
        try:
            index.insert(p)
        except InsertRefused:  # LISA keeps its grid; the point stays out
            pass
    _assert_same(index, queries, (1, 25, 300))
