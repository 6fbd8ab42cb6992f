"""Tests for the built-in insertion procedures (Section IV-B2, Figure 1).

Built-in inserts must keep every query correct (widened scans preserve the
predict-and-scan invariant) while degrading performance — and RSMI's local
rebuilds must produce exactly the unbalanced deepening of Figure 1.
"""

import numpy as np
import pytest

from repro.core.config import ELSIConfig
from repro.core.build_processor import ELSIModelBuilder
from repro.core.update_processor import UpdateProcessor
from repro.data import load_dataset
from repro.data.generators import skewed, uniform
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.queries.evaluate import brute_force_window, window_recall
from repro.spatial.rect import Rect
from tests.brute import assert_windows, point_truth

INDEX_CASES = [
    pytest.param(ZMIndex, {}, id="ZM"),
    pytest.param(MLIndex, {}, id="ML"),
    pytest.param(RSMIIndex, {"leaf_capacity": 400}, id="RSMI"),
    pytest.param(LISAIndex, {}, id="LISA"),
]


@pytest.fixture(scope="module")
def base_points():
    return load_dataset("OSM1", 2_000)


@pytest.fixture(scope="module")
def insert_points():
    return skewed(800, seed=9)


def _build(cls, kwargs, points):
    config = ELSIConfig(train_epochs=80)
    return cls(builder=ELSIModelBuilder(config, method="SP"), **kwargs).build(points)


@pytest.mark.parametrize("cls,kwargs", [p.values for p in INDEX_CASES], ids=[p.id for p in INDEX_CASES])
class TestNativeInsertCorrectness:
    def test_inserted_points_found(self, cls, kwargs, base_points, insert_points):
        index = _build(cls, kwargs, base_points)
        for p in insert_points:
            index.insert(p)
        assert index.n_points == len(base_points) + len(insert_points)
        assert all(index.point_query(p) for p in insert_points[::37])

    def test_original_points_still_found(self, cls, kwargs, base_points, insert_points):
        index = _build(cls, kwargs, base_points)
        for p in insert_points:
            index.insert(p)
        assert all(index.point_query(p) for p in base_points[::97])

    def test_window_sees_inserted_points(self, cls, kwargs, base_points, insert_points):
        index = _build(cls, kwargs, base_points)
        for p in insert_points:
            index.insert(p)
        everything = np.vstack([base_points, insert_points])
        rng = np.random.default_rng(2)
        recalls = []
        for _ in range(15):
            center = insert_points[rng.integers(len(insert_points))]
            window = Rect.centered(center, 0.06)
            got = index.window_query(window)
            recalls.append(window_recall(got, brute_force_window(everything, window)))
        assert np.mean(recalls) > 0.9

    def test_indexed_points_includes_inserts(self, cls, kwargs, base_points, insert_points):
        index = _build(cls, kwargs, base_points)
        for p in insert_points[:100]:
            index.insert(p)
        assert len(index.indexed_points()) == len(base_points) + 100

    def test_knn_after_inserts(self, cls, kwargs, base_points, insert_points):
        index = _build(cls, kwargs, base_points)
        q = np.array([0.91, 0.0123])
        index.insert(q)
        got = index.knn_query(q, 3)
        assert any(np.allclose(row, q) for row in got)


class TestFigure1Mechanism:
    def test_rsmi_local_rebuild_deepens_hot_region(self, base_points):
        """Skewed insertions into one region create new local models there
        (Figure 1's M_{2,0}, M_{3,x}): tree depth and model count grow."""
        index = _build(RSMIIndex, {"leaf_capacity": 300}, base_points)
        depth_before = index.depth()
        models_before = index.n_models()
        burst = np.clip(
            np.random.default_rng(5).normal([0.2, 0.2], 0.01, (1_500, 2)), 0, 1
        )
        for p in burst:
            index.insert(p)
        assert index.n_models() > models_before
        assert index.depth() >= depth_before
        # Everything remains queryable after the local rebuilds.
        assert all(index.point_query(p) for p in burst[::101])
        assert all(index.point_query(p) for p in base_points[::199])

    def test_scan_cost_grows_without_rebuild(self, base_points):
        """ZM's widened scan ranges make point queries scan more points as
        built-in inserts accumulate — the degradation of Figure 15(b)."""
        index = _build(ZMIndex, {}, base_points)
        index.query_stats.reset()
        for p in base_points[:100]:
            index.point_query(p)
        before = index.query_stats.points_scanned / 100
        for p in skewed(1_000, seed=3):
            index.insert(p)
        index.query_stats.reset()
        for p in base_points[:100]:
            index.point_query(p)
        after = index.query_stats.points_scanned / 100
        assert after > before

    def test_rebuild_restores_scan_cost(self, base_points):
        """A full rebuild resets the widened bounds — why rebuilds pay off."""
        config = ELSIConfig(train_epochs=80)
        index = _build(ZMIndex, {}, base_points)
        processor = UpdateProcessor(index, config, native=True)
        for p in skewed(1_000, seed=4):
            processor.insert(p)
        aged = processor.index
        aged.query_stats.reset()
        for p in base_points[:100]:
            aged.point_query(p)
        aged_scan = aged.query_stats.points_scanned / 100

        processor.rebuild()
        fresh = processor.index
        fresh.query_stats.reset()
        for p in base_points[:100]:
            fresh.point_query(p)
        fresh_scan = fresh.query_stats.points_scanned / 100
        assert fresh_scan < aged_scan


class TestNativeModeProcessor:
    def test_native_insert_goes_to_index(self, base_points):
        config = ELSIConfig(train_epochs=80)
        index = _build(ZMIndex, {}, base_points)
        processor = UpdateProcessor(index, config, native=True)
        p = np.array([0.111, 0.222])
        processor.insert(p)
        assert processor.n_pending == 0  # no side list in native mode
        assert index.point_query(p)  # the index itself holds the point
        assert processor.point_query(p)

    def test_native_current_points(self, base_points):
        config = ELSIConfig(train_epochs=80)
        index = _build(ZMIndex, {}, base_points)
        processor = UpdateProcessor(index, config, native=True)
        for p in uniform(50, seed=8):
            processor.insert(p)
        assert len(processor.current_points()) == len(base_points) + 50
        assert processor.n_effective == len(base_points) + 50

    def test_native_delete_then_query(self, base_points):
        config = ELSIConfig(train_epochs=80)
        index = _build(ZMIndex, {}, base_points)
        processor = UpdateProcessor(index, config, native=True)
        assert processor.delete(base_points[11])
        assert not processor.point_query(base_points[11])
        assert len(processor.current_points()) == len(base_points) - 1

    def test_rebuild_uses_index_factory(self, base_points):
        config = ELSIConfig(train_epochs=80)
        factory = lambda: RSMIIndex(  # noqa: E731
            builder=ELSIModelBuilder(config, method="SP"), leaf_capacity=123
        )
        index = factory().build(base_points)
        processor = UpdateProcessor(index, config, native=True, index_factory=factory)
        processor.insert(np.array([0.5, 0.5]))
        processor.rebuild()
        assert processor.index.leaf_capacity == 123

    @pytest.mark.parametrize(
        "cls,kwargs",
        [p.values for p in INDEX_CASES],
        ids=[p.id for p in INDEX_CASES],
    )
    def test_native_mode_answers_on_every_index(
        self, cls, kwargs, base_points, insert_points
    ):
        """``native=True`` on each of the four indices: 60 inserts, then
        point and window answers against a linear scan of D'."""
        index = _build(cls, kwargs, base_points)
        processor = UpdateProcessor(index, ELSIConfig(train_epochs=80), native=True)
        inserted = insert_points[:60]
        for p in inserted:
            processor.insert(p)
        assert processor.native
        everything = np.vstack([base_points, inserted])
        assert processor.n_effective == len(everything)
        misses = np.random.default_rng(3).random((40, 2)) + 1.5
        probes = np.vstack([inserted, base_points[::41], misses])
        np.testing.assert_array_equal(
            processor.point_queries(probes), point_truth(everything, probes)
        )
        windows = [Rect.centered(p, 0.05) for p in inserted[::4]]
        rows, counts = processor.window_rows(
            np.vstack([w.lo_array for w in windows]),
            np.vstack([w.hi_array for w in windows]),
        )
        cuts = np.cumsum(counts)[:-1]
        assert_windows(cls.name, everything, windows, np.split(rows, cuts))

    def test_unsupported_insert_raises(self):
        """Built-in insertion is abstract: an index without it cannot be
        made, so ``native=True`` means native on every index there is."""
        from repro.indices.base import LearnedSpatialIndex

        class Stub(LearnedSpatialIndex):
            name = "stub"

            def build(self, points):
                raise NotImplementedError

            def point_plan(self, pts):
                raise NotImplementedError

            def window_plan(self, win_lo, win_hi):
                raise NotImplementedError

            def knn_queries(self, points, k):
                raise NotImplementedError

            def runs(self):
                raise NotImplementedError

            def map(self, points):
                raise NotImplementedError

            def _structure_state(self):
                raise NotImplementedError

            def _restore_structure(self, state):
                raise NotImplementedError

        with pytest.raises(TypeError, match="insert"):
            Stub()


class TestBlockStoreInsert:
    def test_insert_keeps_sorted(self):
        rng = np.random.default_rng(0)
        pts = rng.random((50, 2))
        keys = rng.random(50)
        from repro.storage.blocks import BlockStore

        store = BlockStore(pts, keys)
        for _ in range(30):
            p = rng.random(2)
            store.insert(p, float(rng.random()))
        assert np.all(np.diff(store.keys) >= 0)
        assert len(store) == 80

    def test_insert_position_returned(self):
        from repro.storage.blocks import BlockStore

        store = BlockStore(np.zeros((2, 2)), np.array([1.0, 3.0]))
        pos = store.insert(np.array([0.5, 0.5]), 2.0)
        assert pos == 1
        assert store.keys[1] == 2.0

    def test_dim_mismatch_rejected(self):
        from repro.storage.blocks import BlockStore

        store = BlockStore(np.zeros((2, 2)), np.array([1.0, 3.0]))
        with pytest.raises(ValueError):
            store.insert(np.zeros(3), 2.0)
