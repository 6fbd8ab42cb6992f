"""Tests for the Flood extension (query-aware column index + ELSI)."""

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import FloodIndex
from repro.queries.evaluate import brute_force_knn, brute_force_window
from repro.queries.workload import window_workload
from repro.spatial.rect import Rect


@pytest.fixture(scope="module")
def built(osm_points):
    config = ELSIConfig(train_epochs=80)
    index = FloodIndex(builder=ELSIModelBuilder(config, method="SP"), n_columns=8)
    return index.build(osm_points)


class TestQueries:
    def test_point_queries(self, built, osm_points):
        assert all(built.point_query(p) for p in osm_points[::40])
        assert not built.point_query(np.array([5.0, 5.0]))

    def test_window_queries_exact(self, built, osm_points):
        rng = np.random.default_rng(0)
        for _ in range(30):
            center = osm_points[rng.integers(len(osm_points))]
            window = Rect.centered(center, rng.uniform(0.02, 0.2))
            got = built.window_query(window)
            truth = brute_force_window(osm_points, window)
            assert len(got) == len(truth)

    def test_knn(self, built, osm_points):
        q = np.array([0.4, 0.6])
        got = built.knn_query(q, 10)
        truth = brute_force_knn(osm_points, q, 10)
        kth = np.linalg.norm(truth[-1] - q)
        assert (np.linalg.norm(got - q, axis=1) <= kth + 1e-12).all()

    def test_indexed_points_complete(self, built, osm_points):
        assert len(built.indexed_points()) == len(osm_points)

    def test_map_orders_by_column_then_y(self, built, osm_points):
        keys = built.map(osm_points[:50])
        cols = np.floor(keys)
        assert np.all((cols >= 0) & (cols < built.n_columns))


class TestELSIIntegration:
    def test_one_model_per_nonempty_column(self, built):
        n_models = len(list(built.runs()))
        assert built.build_stats.n_models == n_models
        assert built.build_stats.methods_used.get("SP", 0) == n_models

    def test_elsi_speeds_up_flood_builds(self, osm_points):
        """The paper's future-work claim, realised: ELSI reduces Flood's
        per-column training cost like any map-and-sort index."""
        import time

        config = ELSIConfig(train_epochs=150)
        started = time.perf_counter()
        FloodIndex(builder=ELSIModelBuilder(config, method="OG"), n_columns=4).build(osm_points)
        og = time.perf_counter() - started
        started = time.perf_counter()
        FloodIndex(builder=ELSIModelBuilder(config, method="SP"), n_columns=4).build(osm_points)
        sp = time.perf_counter() - started
        assert sp < og


class TestTuning:
    def test_selective_workload_prefers_more_columns(self, osm_points):
        tiny = [w.window for w in window_workload(osm_points, 20, 1e-4, seed=0)]
        huge = [w.window for w in window_workload(osm_points, 20, 0.3, seed=0)]
        cost = FloodIndex.estimate_cost
        # For huge windows, many columns add per-column overhead.
        assert cost(osm_points, huge, 64) > cost(osm_points, huge, 2)
        # For selective windows, more columns tighten the scans.
        assert cost(osm_points, tiny, 32) < cost(osm_points, tiny, 2)

    def test_tune_picks_candidate(self, osm_points):
        windows = [w.window for w in window_workload(osm_points, 10, 1e-3, seed=1)]
        index = FloodIndex.tune(osm_points, windows, candidates=(2, 8, 32))
        assert index.n_columns in (2, 8, 32)

    def test_tune_requires_windows(self, osm_points):
        with pytest.raises(ValueError):
            FloodIndex.tune(osm_points, [])


class TestEdgeCases:
    def test_single_column(self, osm_points):
        index = FloodIndex(n_columns=1).build(osm_points)
        assert index.point_query(osm_points[0])

    def test_duplicate_x_coordinates(self):
        pts = np.column_stack([np.full(300, 0.5), np.linspace(0, 1, 300)])
        index = FloodIndex(n_columns=4).build(pts)
        assert index.point_query(pts[100])
        window = Rect((0.4, 0.2), (0.6, 0.4))
        got = index.window_query(window)
        assert len(got) == len(brute_force_window(pts, window))

    def test_invalid_columns(self):
        with pytest.raises(ValueError):
            FloodIndex(n_columns=0)
