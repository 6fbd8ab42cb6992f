"""Tests for multi-leaf batch prediction, and that the retired float32
mode is refused.

The leaf set's own parity and memory contracts are in
``tests/test_model_set.py``.
"""

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import FloodIndex, MLIndex, RSMIIndex, ZMIndex
from repro.spatial.rect import Rect
from tests.brute import assert_knn, assert_windows, point_truth


def _builder():
    return ELSIModelBuilder(ELSIConfig(train_epochs=80), method="SP")


def _probe_points(points, rng, n_hits=200, n_misses=40):
    hits = points[rng.integers(0, len(points), n_hits)]
    misses = rng.random((n_misses, points.shape[1])) + 1.5
    return np.vstack([hits, misses])


# ----------------------------------------------------------------------
# Multi-leaf batch prediction
# ----------------------------------------------------------------------
class TestEngineParity:
    def test_rmi_fuses_and_ranges_contain_per_model(self, osm_points):
        """A two-stage RMI's range for every indexed key holds the key's
        position, and lookups of hits and misses equal brute force."""
        index = ZMIndex(builder=_builder(), branching=4).build(osm_points)
        assert index.model.is_two_stage
        keys = index.store.keys
        lo, hi = index.model.search_ranges(keys)
        positions = np.arange(len(keys))
        assert np.all((lo <= positions) & (positions < hi))
        probes = _probe_points(osm_points, np.random.default_rng(0))
        np.testing.assert_array_equal(
            index.point_queries(probes), point_truth(osm_points, probes)
        )

    @pytest.mark.parametrize("cls", (ZMIndex, MLIndex), ids=lambda c: c.name)
    def test_fused_batch_queries_match_scalar(self, cls, osm_points):
        """Two-stage lookups, batched and one at a time (single-key leaf
        batches), equal brute force."""
        index = cls(builder=_builder(), branching=4).build(osm_points)
        assert index.model.is_two_stage
        rng = np.random.default_rng(1)
        probes = _probe_points(osm_points, rng)
        truth = point_truth(osm_points, probes)
        np.testing.assert_array_equal(index.point_queries(probes), truth)
        np.testing.assert_array_equal([index.point_query(p) for p in probes], truth)
        windows = [Rect.centered(rng.random(2), 0.12) for _ in range(8)]
        assert_windows(cls.name, osm_points, windows, index.window_queries(windows))
        assert_windows(
            cls.name, osm_points, windows, [index.window_query(w) for w in windows]
        )

    def test_flood_fuses_columns(self, osm_points):
        """Each column's own model predicts its probes: batch and one at a
        time equal brute force."""
        index = FloodIndex(builder=_builder(), n_columns=6).build(osm_points)
        assert len(list(index.runs())) == 6
        rng = np.random.default_rng(2)
        probes = _probe_points(osm_points, rng)
        truth = point_truth(osm_points, probes)
        np.testing.assert_array_equal(index.point_queries(probes), truth)
        np.testing.assert_array_equal([index.point_query(p) for p in probes], truth)
        windows = [Rect.centered(rng.random(2), 0.15) for _ in range(8)]
        assert_windows("Flood", osm_points, windows, index.window_queries(windows))
        assert_windows(
            "Flood", osm_points, windows, [index.window_query(w) for w in windows]
        )

    def test_flood_batch_knn_matches_scalar(self, osm_points):
        index = FloodIndex(builder=_builder(), n_columns=6).build(osm_points)
        rng = np.random.default_rng(3)
        queries = rng.random((10, 2))
        assert_knn("Flood", osm_points, queries, 5, index.knn_queries(queries, 5))
        assert_knn(
            "Flood", osm_points, queries, 5, [index.knn_query(q, 5) for q in queries]
        )

    def test_rsmi_batch_windows_match_scalar(self, osm_points):
        index = RSMIIndex(builder=_builder(), leaf_capacity=300).build(osm_points)
        rng = np.random.default_rng(4)
        windows = [Rect.centered(rng.random(2), 0.12) for _ in range(10)]
        assert_windows("RSMI", osm_points, windows, index.window_queries(windows))
        assert_windows(
            "RSMI", osm_points, windows, [index.window_query(w) for w in windows]
        )

    def test_rsmi_batch_knn_matches_scalar(self, osm_points):
        index = RSMIIndex(builder=_builder(), leaf_capacity=300).build(osm_points)
        rng = np.random.default_rng(5)
        queries = rng.random((8, 2))
        assert_knn("RSMI", osm_points, queries, 4, index.knn_queries(queries, 4))
        assert_knn(
            "RSMI", osm_points, queries, 4, [index.knn_query(q, 4) for q in queries]
        )


# ----------------------------------------------------------------------
# The retired float32 mode
# ----------------------------------------------------------------------
class TestFloat32:
    def test_config_rejects_unknown_dtype(self):
        """float64 is the one precision: float32 is refused like any
        other dtype."""
        for dtype in ("float32", "float16"):
            with pytest.raises(ValueError, match="dtype"):
                ELSIConfig(dtype=dtype)
