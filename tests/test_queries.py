"""Unit tests for query types, workloads and recall evaluation."""

import numpy as np
import pytest

from repro.queries.evaluate import (
    brute_force_knn,
    brute_force_window,
    knn_recall,
    window_recall,
)
from repro.queries.types import KNNQuery, PointQuery, WindowQuery, check_k
from repro.queries.workload import knn_workload, point_workload, window_workload
from repro.spatial.rect import Rect


class TestTypes:
    def test_point_query_runs(self, osm_points, sp_builder):
        from repro.indices import ZMIndex

        index = ZMIndex(builder=sp_builder).build(osm_points)
        q = PointQuery(tuple(osm_points[0]))
        assert q.run(index) is True

    def test_knn_query_validation(self):
        with pytest.raises(ValueError):
            KNNQuery((0.5, 0.5), k=0)

    @pytest.mark.parametrize("k", [0, -1, np.int64(0), 2.5, np.float64(3.0), "3", None])
    def test_k_must_be_an_integer_of_at_least_one(self, k, osm_points):
        """One check for every kNN entry point here: a float ``k``, even a
        whole one, is refused like a ``k`` below one."""
        q = osm_points[0]
        for call in (
            lambda: check_k(k),
            lambda: KNNQuery((0.5, 0.5), k=k),
            lambda: brute_force_knn(osm_points, q, k),
            lambda: knn_recall(osm_points[:3], osm_points, q, k),
        ):
            with pytest.raises(ValueError, match="k must be an integer >= 1"):
                call()

    def test_integer_k_of_any_integer_type_is_accepted(self):
        for k in (1, 25, np.int64(3), np.int32(7), np.uint8(2)):
            assert check_k(k) == k and type(check_k(k)) is int

    def test_window_query_wraps_rect(self):
        w = WindowQuery(Rect.unit(2))
        assert w.window.area() == 1.0


class TestWorkloads:
    def test_point_workload_all_points(self, osm_points):
        queries = point_workload(osm_points)
        assert len(queries) == len(osm_points)

    def test_point_workload_subsample(self, osm_points):
        queries = point_workload(osm_points, n_queries=100, seed=0)
        assert len(queries) == 100
        pts = {tuple(p) for p in osm_points}
        assert all(q.point in pts for q in queries)

    def test_window_workload_area(self, osm_points):
        queries = window_workload(osm_points, n_queries=50, area_fraction=1e-3)
        bounds = Rect.bounding(osm_points)
        for q in queries[:10]:
            assert q.window.area() == pytest.approx(bounds.area() * 1e-3, rel=1e-6)

    def test_window_workload_follows_distribution(self, osm_points):
        """Window centres are data points — dense regions get more queries."""
        queries = window_workload(osm_points, n_queries=100, seed=1)
        pts = {tuple(np.round(p, 12)) for p in osm_points}
        centers_on_data = sum(
            tuple(np.round(q.window.center, 12)) in pts for q in queries
        )
        assert centers_on_data == 100

    def test_knn_workload(self, osm_points):
        queries = knn_workload(osm_points, n_queries=30, k=25)
        assert len(queries) == 30
        assert all(q.k == 25 for q in queries)

    def test_invalid_args(self, osm_points):
        with pytest.raises(ValueError):
            point_workload(np.empty((0, 2)))
        with pytest.raises(ValueError):
            window_workload(osm_points, area_fraction=0.0)


class TestEvaluation:
    def test_brute_force_window(self):
        pts = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
        got = brute_force_window(pts, Rect((0.0, 0.0), (0.6, 0.6)))
        assert len(got) == 2

    def test_brute_force_knn_order(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        got = brute_force_knn(pts, np.array([0.1, 0.0]), 2)
        np.testing.assert_array_equal(got[0], [0.0, 0.0])
        np.testing.assert_array_equal(got[1], [0.5, 0.0])

    def test_window_recall_perfect(self):
        truth = np.array([[0.1, 0.1], [0.2, 0.2]])
        assert window_recall(truth, truth) == 1.0

    def test_window_recall_partial(self):
        truth = np.array([[0.1, 0.1], [0.2, 0.2]])
        got = truth[:1]
        assert window_recall(got, truth) == 0.5

    def test_window_recall_empty_truth(self):
        assert window_recall(np.empty((0, 2)), np.empty((0, 2))) == 1.0

    def test_window_recall_duplicates_with_multiplicity(self):
        truth = np.array([[0.1, 0.1], [0.1, 0.1]])
        got = np.array([[0.1, 0.1]])
        assert window_recall(got, truth) == 0.5

    def test_knn_recall_perfect(self):
        pts = np.random.default_rng(0).random((100, 2))
        q = np.array([0.5, 0.5])
        truth = brute_force_knn(pts, q, 10)
        assert knn_recall(truth, pts, q, 10) == 1.0

    def test_knn_recall_degrades(self):
        pts = np.random.default_rng(1).random((100, 2))
        q = np.array([0.5, 0.5])
        far = brute_force_knn(pts, q, 50)[40:50]  # the 10 farthest of top-50
        assert knn_recall(far, pts, q, 10) < 0.5

    def test_knn_recall_empty_returned(self):
        pts = np.random.default_rng(2).random((20, 2))
        assert knn_recall(np.empty((0, 2)), pts, np.array([0.5, 0.5]), 5) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            brute_force_knn(np.zeros((3, 2)), np.zeros(2), 0)
        with pytest.raises(ValueError):
            knn_recall(np.zeros((1, 2)), np.zeros((3, 2)), np.zeros(2), 0)
