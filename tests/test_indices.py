"""Integration-grade unit tests shared by all four learned spatial indices.

Checks the map-and-sort / predict-and-scan contract per index: point-query
correctness for indexed points, exactness of ZM/ML window queries, recall
quality of RSMI/LISA, kNN behaviour, and build statistics.
"""

import numpy as np
import pytest

from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.queries.evaluate import brute_force_knn, brute_force_window, window_recall
from repro.spatial.rect import Rect

INDEX_CASES = [
    pytest.param(ZMIndex, {}, id="ZM"),
    pytest.param(MLIndex, {"n_references": 8}, id="ML"),
    pytest.param(RSMIIndex, {"leaf_capacity": 600}, id="RSMI"),
    pytest.param(LISAIndex, {"grid_size": 8}, id="LISA"),
]


@pytest.fixture(scope="module")
def built_indices(request):
    """Build each index once per module on shared data."""
    from repro.data import load_dataset
    from repro.indices.base import OriginalBuilder
    from repro.ml.trainer import TrainConfig

    pts = load_dataset("OSM1", 2_000)
    builder = lambda: OriginalBuilder(train_config=TrainConfig(epochs=100))  # noqa: E731
    built = {}
    for param in INDEX_CASES:
        cls, kwargs = param.values
        built[param.id] = cls(builder=builder(), **kwargs).build(pts)
    return built, pts


@pytest.mark.parametrize("cls,kwargs", [p.values for p in INDEX_CASES], ids=[p.id for p in INDEX_CASES])
class TestContract:
    def _get(self, built_indices, cls):
        built, pts = built_indices
        name_by_class = {ZMIndex: "ZM", MLIndex: "ML", RSMIIndex: "RSMI", LISAIndex: "LISA"}
        return built[name_by_class[cls]], pts

    def test_point_query_finds_every_indexed_point(self, built_indices, cls, kwargs):
        index, pts = self._get(built_indices, cls)
        assert all(index.point_query(p) for p in pts[:400])

    def test_point_query_rejects_absent_points(self, built_indices, cls, kwargs):
        index, pts = self._get(built_indices, cls)
        rng = np.random.default_rng(0)
        misses = rng.random((50, 2)) * 2.0 + 1.5  # outside the data region
        assert not any(index.point_query(p) for p in misses)

    def test_window_query_high_recall(self, built_indices, cls, kwargs):
        index, pts = self._get(built_indices, cls)
        rng = np.random.default_rng(1)
        recalls = []
        for _ in range(25):
            center = pts[rng.integers(len(pts))]
            window = Rect.centered(center, 0.06)
            returned = index.window_query(window)
            truth = brute_force_window(pts, window)
            recalls.append(window_recall(returned, truth))
            # No false positives ever: every returned point is in the window.
            if len(returned):
                assert window.contains_points(returned).all()
        assert np.mean(recalls) > 0.95

    def test_window_query_empty_region(self, built_indices, cls, kwargs):
        index, _pts = self._get(built_indices, cls)
        window = Rect((0.0, 0.0), (1e-9, 1e-9))
        result = index.window_query(window)
        assert result.shape[1] == 2

    def test_knn_returns_k_points(self, built_indices, cls, kwargs):
        index, pts = self._get(built_indices, cls)
        result = index.knn_query(np.array([0.5, 0.5]), 10)
        assert result.shape == (10, 2)

    def test_knn_close_to_exact(self, built_indices, cls, kwargs):
        index, pts = self._get(built_indices, cls)
        q = pts[123]
        got = index.knn_query(q, 10)
        truth = brute_force_knn(pts, q, 10)
        kth_true = np.linalg.norm(truth[-1] - q)
        got_dists = np.linalg.norm(got - q, axis=1)
        # At least 8 of 10 within the true 10th-nearest distance.
        assert (got_dists <= kth_true + 1e-12).sum() >= 8

    def test_knn_k_larger_than_n(self, built_indices, cls, kwargs):
        index, pts = self._get(built_indices, cls)
        result = index.knn_query(np.array([0.5, 0.5]), len(pts) + 50)
        assert len(result) <= len(pts)

    def test_build_stats_recorded(self, built_indices, cls, kwargs):
        index, _pts = self._get(built_indices, cls)
        stats = index.build_stats
        assert stats.n_models >= 1
        assert stats.train_seconds > 0
        assert stats.train_set_size > 0

    def test_indexed_points_complete(self, built_indices, cls, kwargs):
        index, pts = self._get(built_indices, cls)
        stored = index.indexed_points()
        assert len(stored) == len(pts)
        assert set(map(tuple, stored)) == set(map(tuple, pts))

    def test_map_is_deterministic(self, built_indices, cls, kwargs):
        index, pts = self._get(built_indices, cls)
        np.testing.assert_array_equal(index.map(pts[:20]), index.map(pts[:20]))

    def test_query_stats_accumulate(self, built_indices, cls, kwargs):
        index, pts = self._get(built_indices, cls)
        index.query_stats.reset()
        index.point_query(pts[0])
        assert index.query_stats.queries == 1
        assert index.query_stats.model_invocations >= 1

    def test_unbuilt_queries_rejected(self, built_indices, cls, kwargs):
        fresh = cls(**kwargs)
        with pytest.raises(RuntimeError):
            fresh.point_query(np.array([0.5, 0.5]))

    def test_invalid_build_inputs(self, built_indices, cls, kwargs):
        fresh = cls(**kwargs)
        with pytest.raises(ValueError):
            fresh.build(np.empty((0, 2)))
        with pytest.raises(ValueError):
            fresh.build(np.zeros((5, 1)))


def test_one_query_path_per_index():
    """The batch methods are the contract; the per-query spellings exist
    once, in the base class, as batches of one."""
    import inspect

    import repro.indices
    from repro.indices.base import LearnedSpatialIndex

    subclasses = [
        cls
        for _, cls in inspect.getmembers(repro.indices, inspect.isclass)
        if issubclass(cls, LearnedSpatialIndex) and cls is not LearnedSpatialIndex
    ]
    assert len(subclasses) == 5  # ZM, ML, RSMI, LISA, Flood
    for cls in subclasses:
        for scalar in ("point_query", "window_query", "knn_query"):
            assert scalar not in vars(cls), f"{cls.__name__} defines {scalar}"
            assert getattr(cls, scalar) is getattr(LearnedSpatialIndex, scalar)
        for batch in ("point_queries", "window_queries", "knn_queries"):
            assert batch in vars(cls), f"{cls.__name__} lacks {batch}"


class TestExactWindowIndices:
    """ZM and ML answer window queries exactly (Section VII-G2)."""

    @pytest.mark.parametrize("cls", [ZMIndex, MLIndex])
    def test_window_recall_is_one(self, built_indices, cls):
        built, pts = built_indices
        index = built["ZM" if cls is ZMIndex else "ML"]
        rng = np.random.default_rng(3)
        for _ in range(30):
            center = pts[rng.integers(len(pts))]
            window = Rect.centered(center, 0.08)
            returned = index.window_query(window)
            truth = brute_force_window(pts, window)
            assert len(returned) == len(truth)


class TestDuplicatesAndDegenerate:
    @pytest.mark.parametrize("cls,kwargs", [p.values for p in INDEX_CASES], ids=[p.id for p in INDEX_CASES])
    def test_duplicate_points(self, cls, kwargs):
        pts = np.vstack([np.tile([[0.5, 0.5]], (30, 1)), np.random.default_rng(0).random((100, 2))])
        from repro.ml.trainer import TrainConfig
        from repro.indices.base import OriginalBuilder

        index = cls(builder=OriginalBuilder(TrainConfig(epochs=40)), **kwargs).build(pts)
        assert index.point_query(np.array([0.5, 0.5]))
        window = Rect.centered(np.array([0.5, 0.5]), 0.01)
        assert len(index.window_query(window)) >= 30

    @pytest.mark.parametrize("cls,kwargs", [p.values for p in INDEX_CASES], ids=[p.id for p in INDEX_CASES])
    def test_collinear_points(self, cls, kwargs):
        # All points on a vertical line: degenerate x extent.
        y = np.linspace(0, 1, 200)
        pts = np.column_stack([np.full(200, 0.3), y])
        from repro.ml.trainer import TrainConfig
        from repro.indices.base import OriginalBuilder

        index = cls(builder=OriginalBuilder(TrainConfig(epochs=40)), **kwargs).build(pts)
        assert index.point_query(pts[57])
