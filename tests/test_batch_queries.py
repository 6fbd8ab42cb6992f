"""Tests for the batch query API — the one query path every index has.

Answers are checked against brute force (``tests/brute.py``), through both
spellings: a batch call and a loop of per-query calls, which
``indices/base.py`` defines as batches of one.
"""

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex
from tests.brute import assert_knn, assert_windows, canon, point_truth, processor_windows


@pytest.fixture(scope="module")
def indices(osm_points):
    config = ELSIConfig(train_epochs=80)
    built = {}
    for cls in (ZMIndex, MLIndex, RSMIIndex, LISAIndex):
        built[cls.name] = cls(builder=ELSIModelBuilder(config, method="SP")).build(
            osm_points
        )
    return built


@pytest.mark.parametrize("name", ["ZM", "ML", "RSMI", "LISA"])
def test_batch_matches_scalar(indices, osm_points, name):
    index = indices[name]
    rng = np.random.default_rng(0)
    batch = np.vstack([osm_points[:200], rng.random((50, 2)) + 1.5])
    truth = point_truth(osm_points, batch)
    np.testing.assert_array_equal(index.point_queries(batch), truth)
    np.testing.assert_array_equal([index.point_query(p) for p in batch], truth)
    assert truth[:200].all() and not truth[200:].any()


@pytest.mark.parametrize("name", ["ZM", "ML"])
def test_vectorised_path_all_hits_and_misses(indices, osm_points, name):
    index = indices[name]
    hits = index.point_queries(osm_points[:300])
    assert hits.all()
    misses = index.point_queries(osm_points[:50] + 2.0)
    assert not misses.any()


def test_batch_on_two_stage_rmi(osm_points):
    config = ELSIConfig(train_epochs=80)
    index = ZMIndex(
        builder=ELSIModelBuilder(config, method="SP"), branching=4
    ).build(osm_points)
    got = index.point_queries(osm_points[:200])
    assert got.all()


def test_search_ranges_match_scalar(osm_points):
    config = ELSIConfig(train_epochs=80)
    index = ZMIndex(
        builder=ELSIModelBuilder(config, method="SP"), branching=4
    ).build(osm_points)
    keys = index.store.keys[::37]
    lo, hi = index.model.search_ranges(keys)
    for i, key in enumerate(keys):
        s_lo, s_hi = index.model.search_ranges(np.array([key]))
        assert lo[i] == s_lo[0]
        assert hi[i] == s_hi[0]


def test_batch_after_native_inserts(osm_points):
    config = ELSIConfig(train_epochs=80)
    index = ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(osm_points)
    extra = np.random.default_rng(1).random((40, 2))
    for p in extra:
        index.insert(p)
    assert index.point_queries(extra).all()


def test_single_row_batch(indices, osm_points):
    index = indices["ZM"]
    assert index.point_queries(osm_points[0]).shape == (1,)


class TestBatchEdgeCases:
    """Serving-path edge cases: empty and single-point request batches."""

    @pytest.mark.parametrize("name", ["ZM", "ML", "RSMI", "LISA"])
    def test_empty_batch(self, indices, name):
        index = indices[name]
        out = index.point_queries(np.empty((0, 2)))
        assert out.shape == (0,)
        assert out.dtype == bool

    def test_empty_batch_against_empty_store(self, osm_points):
        from repro.perf.batching import batch_point_membership
        from repro.storage.blocks import BlockStore

        store = BlockStore(np.empty((0, 2)), np.empty(0))
        out = batch_point_membership(
            store, np.empty(0), np.empty(0), np.empty(0), np.empty((0, 2))
        )
        assert out.shape == (0,)

    def test_single_point_batch_no_gather(self, indices, osm_points):
        """A one-request batch must not pay the range-merge machinery —
        it degenerates to one store scan, which is also what a per-query
        call costs (it *is* a one-request batch)."""
        index = indices["ZM"]
        store = index.store
        assert index.point_queries(osm_points[:1])[0]
        store.reset_block_reads()
        index.point_queries(osm_points[:1])
        batch_reads = store.block_reads
        # One contiguous scan: the blocks its range touches, read once.
        keys = index.map(osm_points[:1])
        lo, hi = index.model.search_ranges(keys)
        assert batch_reads == (hi[0] - 1) // store.block_size - lo[0] // store.block_size + 1
        store.reset_block_reads()
        assert index.point_query(osm_points[0])
        assert store.block_reads == batch_reads

    @pytest.mark.parametrize("name", ["ZM", "ML", "RSMI", "LISA"])
    def test_single_point_matches_scalar(self, indices, osm_points, name):
        index = indices[name]
        miss = np.array([[1.7, 1.9]])
        assert index.point_queries(osm_points[3:4])[0]
        assert index.point_query(osm_points[3])
        assert not index.point_queries(miss)[0]
        assert not index.point_query(miss[0])


class TestBatchKNN:
    """Expanding-window kNN against brute force, through both spellings."""

    @pytest.mark.parametrize("name", ["ZM", "LISA"])
    def test_batch_knn_matches_scalar(self, indices, osm_points, name):
        index = indices[name]
        queries = osm_points[::100]
        assert_knn(name, osm_points, queries, 7, index.knn_queries(queries, 7))
        assert_knn(
            name, osm_points, queries, 7, [index.knn_query(q, 7) for q in queries]
        )

    def test_batch_knn_k_exceeds_n(self, indices, osm_points):
        index = indices["ZM"]
        n = index.n_points
        results = index.knn_queries(osm_points[:3], n + 10)
        for got in results:
            assert len(got) == n
        assert_knn("ZM", osm_points, osm_points[:3], n + 10, results)

    def test_batch_knn_empty(self, indices):
        assert indices["ZM"].knn_queries(np.empty((0, 2)), 5) == []

    def test_batch_knn_outside_bounds(self, indices, osm_points):
        # Outside the data bounds, near and farther than twice the data
        # extent.  ZM, ML-Index and LISA seed the first window from indexed
        # points (their key-order neighbours), so it reaches the data from
        # anywhere; RSMI sizes it from the global density and doubles it
        # until it covers the data bounds from where the query is.
        near = np.array([[1.3, 1.2], [-0.4, 0.5]])
        far = np.array([[5.0, 5.0], [-3.0, 0.5], [1e6, -1e6]])
        for name in ("ZM", "ML", "LISA"):
            index = indices[name]
            for queries in (near, far):
                assert_knn(name, osm_points, queries, 4, index.knn_queries(queries, 4))
                assert_knn(
                    name, osm_points, queries, 4, [index.knn_query(q, 4) for q in queries]
                )
            assert_knn(name, osm_points, far[:1], 5, [index.knn_query(far[0], 5)])
        # RSMI's windows are approximate, so a far query gets what they
        # find — never nothing.
        index = indices["RSMI"]
        assert_knn("RSMI", osm_points, near, 4, index.knn_queries(near, 4))
        assert all(len(got) > 0 for got in index.knn_queries(far, 4))
        assert all(len(index.knn_query(q, 4)) > 0 for q in far)
        assert len(index.knn_query(far[0], 5)) > 0


class TestMLBatchKNN:
    """ML-Index's batched iDistance kNN is exact: sorted distances equal
    brute force — ties and edge cases included."""

    @pytest.mark.parametrize("k", [1, 7, 23])
    def test_matches_scalar(self, indices, osm_points, k):
        index = indices["ML"]
        rng = np.random.default_rng(5)
        queries = np.vstack(
            [osm_points[::80], rng.random((30, 2)), rng.random((10, 2)) + 1.5]
        )
        assert_knn("ML", osm_points, queries, k, index.knn_queries(queries, k))
        assert_knn(
            "ML", osm_points, queries[::9], k, [index.knn_query(q, k) for q in queries[::9]]
        )

    def test_ties_resolve_identically(self, osm_points):
        # Duplicated points force exact distance ties: each duplicate pair
        # sits at one distance, and the answer must hold the true distances
        # whichever representative the stable ordering keeps.
        config = ELSIConfig(train_epochs=80)
        dup = np.vstack([osm_points[:400], osm_points[:400]])
        index = MLIndex(builder=ELSIModelBuilder(config, method="SP")).build(dup)
        queries = osm_points[:25]
        batch = index.knn_queries(queries, 6)
        assert_knn("ML", dup, queries, 6, batch)
        for q, got in zip(queries, batch):
            np.testing.assert_array_equal(got[:2], [q, q])  # the query's own pair
            np.testing.assert_array_equal(got, index.knn_query(q, 6))

    def test_k_exceeds_n(self, osm_points):
        config = ELSIConfig(train_epochs=60)
        index = MLIndex(
            builder=ELSIModelBuilder(config, method="SP"), n_references=2
        ).build(osm_points[:6])
        queries = osm_points[:4]
        for q, got in zip(queries, index.knn_queries(queries, 10)):
            # At radii past the data diameter the annulus intervals overlap
            # partitions, so the candidate list can carry duplicates — but
            # it must cover the whole dataset, nearest first.
            assert len(np.unique(got, axis=0)) == 6
            assert np.all(np.diff(np.linalg.norm(got - q, axis=1)) >= 0)
            np.testing.assert_array_equal(got, index.knn_query(q, 10))

    def test_non_finite_queries_end_with_no_rows(self, indices, osm_points):
        """No indexed point is at a finite distance from a NaN or infinite
        query (brute force), so its answer is empty, ``(0, d)``, as ZM's
        is, in a batch and alone; the finite queries around it keep their
        brute-force answers."""
        index = indices["ML"]
        odd = np.array([[np.nan, 0.5], [np.inf, 0.5], [-np.inf, 0.5], [0.5, np.nan]])
        queries = np.vstack([osm_points[:3], odd, osm_points[3:5]])
        finite = np.isfinite(queries).all(axis=1)
        with np.errstate(invalid="ignore"):
            batch = index.knn_queries(queries, 5)
            alone = [index.knn_query(q, 5) for q in odd]
            for q in odd:
                diff = osm_points - q
                assert not np.isfinite(np.einsum("ij,ij->i", diff, diff)).any()
        kept = [got for got, keep in zip(batch, finite) if keep]
        assert_knn("ML", osm_points, queries[finite], 5, kept)
        for got in [got for got, keep in zip(batch, finite) if not keep] + alone:
            assert got.shape == (0, 2)

    def test_empty_batch(self, indices):
        assert indices["ML"].knn_queries(np.empty((0, 2)), 3) == []

    def test_invalid_k_rejected(self, indices, osm_points):
        with pytest.raises(ValueError, match="k must be"):
            indices["ML"].knn_queries(osm_points[:2], 0)
        with pytest.raises(ValueError, match="k must be"):
            indices["ML"].knn_query(osm_points[0], 0)

    def test_non_integer_k_rejected(self, indices, osm_points):
        """A float ``k`` is refused where the query enters, by the index and
        by the update processor over it, instead of failing as a slice
        bound inside the rounds."""
        from repro.core.update_processor import UpdateProcessor

        processor = UpdateProcessor(indices["ZM"])
        for k in (2.5, np.float64(3.0)):
            for call in (
                lambda: indices["ZM"].knn_queries(osm_points[:2], k),
                lambda: indices["ML"].knn_query(osm_points[0], k),
                lambda: processor.knn_queries(osm_points[:2], k),
            ):
                with pytest.raises(ValueError, match="k must be an integer"):
                    call()
        got = indices["ZM"].knn_queries(osm_points[:2], np.int64(4))
        assert_knn("ZM", osm_points, osm_points[:2], 4, got)

    def test_query_stats_match_scalar(self, osm_points):
        """kNN annuli are located by ``searchsorted``: no model runs, none
        is charged, and every gathered candidate row is."""
        config = ELSIConfig(train_epochs=80)
        queries = osm_points[::150]
        index = MLIndex(builder=ELSIModelBuilder(config, method="SP")).build(
            osm_points
        )
        results = index.knn_queries(queries, 5)
        assert index.query_stats.queries == len(queries)
        assert index.query_stats.model_invocations == 0
        assert index.query_stats.points_scanned >= sum(len(r) for r in results)


# ----------------------------------------------------------------------
# Batch window queries
# ----------------------------------------------------------------------
class TestBatchWindowQueries:
    def _windows(self, osm_points):
        from repro.spatial.rect import Rect

        rng = np.random.default_rng(5)
        windows = []
        for _ in range(12):
            center = osm_points[rng.integers(len(osm_points))]
            windows.append(Rect.centered(center, float(rng.uniform(0.01, 0.2))))
        windows.append(Rect((2.0, 2.0), (3.0, 3.0)))  # empty window
        return windows

    @pytest.mark.parametrize("name", ["ZM", "ML", "RSMI", "LISA"])
    def test_batch_matches_scalar(self, indices, osm_points, name):
        index = indices[name]
        windows = self._windows(osm_points)
        assert_windows(name, osm_points, windows, index.window_queries(windows))
        assert_windows(
            name, osm_points, windows, [index.window_query(w) for w in windows]
        )

    def test_batch_window_empty_list(self, indices):
        assert indices["ZM"].window_queries([]) == []

    def test_batch_window_query_stats_match_scalar(self, osm_points):
        """ZM windows: one query and the rows of its exact key interval are
        charged per window; no model runs, so none is charged."""
        config = ELSIConfig(train_epochs=80)
        index = ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(
            osm_points
        )
        windows = self._windows(osm_points)
        index.window_queries(windows)
        scanned = 0
        for w in windows:
            z_lo, z_hi = index.map(np.vstack([w.lo_array, w.hi_array]))
            scanned += np.count_nonzero(
                (index.store.keys >= z_lo) & (index.store.keys <= z_hi)
            )
        assert index.query_stats.queries == len(windows)
        assert index.query_stats.model_invocations == 0
        assert index.query_stats.points_scanned == scanned

    def test_update_processor_batch_merges_side_list(self, osm_points):
        """Side list and deletion marks merge into every query kind, the
        same through both spellings, and equal to brute force over D'."""
        from repro.core.update_processor import UpdateProcessor

        config = ELSIConfig(train_epochs=80)
        index = ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(
            osm_points
        )
        proc = UpdateProcessor(index, config=config)
        proc.insert(np.array([0.501, 0.501]))
        proc.delete(osm_points[0])
        current = proc.current_points()
        assert len(current) == len(osm_points)

        windows = self._windows(osm_points)
        assert_windows("ZM", current, windows, processor_windows(proc, windows))
        assert_windows("ZM", current, windows, [proc.window_query(w) for w in windows])

        probes = np.vstack([osm_points[:20], [[0.501, 0.501], [1.7, 1.9]]])
        truth = point_truth(current, probes)
        assert not truth[0] and truth[20] and not truth[21]
        np.testing.assert_array_equal(proc.point_queries(probes), truth)
        np.testing.assert_array_equal([proc.point_query(p) for p in probes], truth)

        queries = np.vstack([osm_points[:3], [[0.5, 0.5]]])
        assert_knn("ZM", current, queries, 5, proc.knn_queries(queries, 5))
        assert_knn("ZM", current, queries, 5, [proc.knn_query(q, 5) for q in queries])
