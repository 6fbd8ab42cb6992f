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


def _definitions(cls, name):
    """The classes in ``cls``'s MRO that define ``name`` and are not
    abstract there."""
    return [
        c
        for c in cls.__mro__
        if name in vars(c) and not getattr(vars(c)[name], "__isabstractmethod__", False)
    ]


def test_one_query_path_per_index():
    """An index plans its queries; the batch methods that execute a plan,
    and the per-query spellings (batches of one), exist once, in the base
    class."""
    import inspect

    import repro.indices
    from repro.indices.base import LearnedSpatialIndex

    subclasses = [
        cls
        for _, cls in inspect.getmembers(repro.indices, inspect.isclass)
        if issubclass(cls, LearnedSpatialIndex) and cls is not LearnedSpatialIndex
    ]
    assert len(subclasses) == 4  # ZM, ML, RSMI, LISA
    for cls in subclasses:
        for name in (
            "point_query", "window_query", "knn_query",
            "point_queries", "window_queries", "window_rows", "knn_queries",
        ):
            assert _definitions(cls, name) == [LearnedSpatialIndex], (cls, name)
        for plan in ("point_plan", "window_plan"):
            owners = _definitions(cls, plan)
            assert len(owners) == 1 and owners[0] is not LearnedSpatialIndex, (
                f"{cls.__name__}.{plan}: {owners}"
            )


#: Members the single-store indices inherit from the map-and-sort core.
MAP_AND_SORT_CORE = (
    "build",
    "insert",
    "point_plan",
    "runs",
    "error_width",
    "_knn_first_sides",
    "_structure_state",
    "_restore_structure",
)

#: Top-level ``state_dict()`` keys, in order, as PR 17 wrote them.
_STATE_HEAD = ["params", "bounds", "n_points", "native_inserts"]
STATE_KEYS = {
    "ZM": [*_STATE_HEAD, "store", "model"],
    "ML": [*_STATE_HEAD, "references", "stretch", "store", "model"],
    "LISA": [*_STATE_HEAD, "boundaries", "weights", "store", "model"],
}


def test_one_keyed_run(built_indices):
    """Store + model + widened scan + point lookup + state pair exist once
    (``indices/run.py``), and so does the model side: a leaf set predicts
    one way (``ModelSet``, made only by the RMI, with no stacked engine),
    on predict-and-scan arithmetic written once (``indices/base.py``).
    The single-store indices inherit their core; no index module but the
    executor's (``base.py``) and the run's imports a refinement kernel, and
    none casts a model down itself.  kNN candidates are ranked one way:
    both kNN drivers call ``rank_by_owner`` (``base.py``), and no index
    module calls ``lexsort``."""
    import ast
    from pathlib import Path

    import repro
    from repro.indices.base import LearnedSpatialIndex
    from repro.indices.mapsort import MapAndSortIndex
    from repro.indices.run import KeyedRun

    built, _ = built_indices
    for cls in (ZMIndex, MLIndex, LISAIndex):
        assert issubclass(cls, MapAndSortIndex)
        for member in MAP_AND_SORT_CORE:
            assert member not in vars(cls), f"{cls.__name__} defines {member}"
            assert _definitions(cls, member)[0] is MapAndSortIndex
        assert list(built[cls.name].state_dict()) == STATE_KEYS[cls.name]
    for index in built.values():
        assert _definitions(type(index), "indexed_points") == [LearnedSpatialIndex]
        runs = list(index.runs())
        assert runs and all(type(run) is KeyedRun for run in runs)
        assert sum(len(run.store) for run in runs) == index.n_points

    src = Path(repro.__file__).parent
    kernels = {
        "batch_point_membership",
        "sorted_point_membership",
        "batch_window_refine",
        "flat_window_refine",
    }
    drivers = []
    for path in sorted((src / "indices").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        if path.name not in ("base.py", "run.py"):
            assert not imported & kernels, path.name
        # One kNN ranking: no lexsort, and every kNN driver calls the helper.
        called = {
            getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert "lexsort" not in called, path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_knn_rounds":
                drivers.append(path.name)
                assert any(
                    isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "rank_by_owner"
                    for call in ast.walk(node)
                ), path.name
    assert drivers == ["base.py", "ml_index.py"]
    for name in ("rsmi.py", "mapsort.py"):
        assert "net.astype(" not in (src / "indices" / name).read_text(), name

    def sites(text):
        return [
            path.relative_to(src).as_posix()
            for path in sorted(src.rglob("*.py"))
            for line in path.read_text().splitlines()
            if text in line
        ]

    assert sites("FusedInferenceEngine") == sites("perf.fused_predict") == []
    for name in ("run.py", "rmi.py"):
        assert "einsum(" not in (src / "indices" / name).read_text(), name
    assert sites("ModelSet(") == ["indices/rmi.py"]
    assert sites("_point_lookup") == []
    for text in ("def normalise_keys", "np.rint(", "err_u + 1", "def rank_by_owner"):
        assert sites(text) == ["indices/base.py"], text


def test_ml_refuses_insert_beyond_stretch(built_indices):
    """A point farther than the stretch from every reference would be keyed
    into the next partition: found by point and kNN queries, missed by a
    window.  The insert is refused before anything changes, and the update
    processor serves the point from its side list."""
    from repro.core.update_processor import UpdateProcessor
    from repro.indices.base import InsertRefused, OriginalBuilder
    from repro.ml.trainer import TrainConfig

    _, pts = built_indices
    index = MLIndex(
        builder=OriginalBuilder(TrainConfig(epochs=40)), n_references=8
    ).build(pts)
    far = np.array([5.0, 5.0])
    window = Rect.centered(far, 0.1)
    before = index.store.keys.copy()
    with pytest.raises(InsertRefused, match="stretch"):
        index.insert(far)
    assert issubclass(InsertRefused, ValueError)
    assert np.array_equal(index.store.keys, before)
    assert (index.n_points, index._native_inserts) == (len(pts), 0)
    assert not index.point_query(far)

    processor = UpdateProcessor(index, native=True)
    processor.insert(far)
    processor.insert(pts[0] + 1e-3)  # placeable: goes into the index
    assert (processor.n_pending, index._native_inserts) == (1, 1)
    assert processor.point_query(far)
    assert np.array_equal(processor.window_query(window), far[None])
    assert np.array_equal(processor.knn_query(far, 1), far[None])
    assert processor.n_effective == len(pts) + 2


@pytest.mark.parametrize("cls", [ZMIndex, LISAIndex])
def test_far_native_insert_is_seen_by_windows(built_indices, cls):
    """What ML-Index refuses, ZM and LISA place and return."""
    from repro.indices.base import OriginalBuilder
    from repro.ml.trainer import TrainConfig

    _, pts = built_indices
    index = cls(builder=OriginalBuilder(TrainConfig(epochs=40))).build(pts)
    far = np.array([5.0, 5.0])
    index.insert(far)
    assert index.point_query(far)
    assert np.array_equal(index.window_query(Rect.centered(far, 0.1)), far[None])


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
