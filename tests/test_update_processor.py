"""Unit tests for the update processor and rebuild predictor (Section IV-B2)."""

import zipfile

import numpy as np
import pytest

from repro.core.update_processor import (
    RebuildPredictor,
    UpdateProcessor,
    train_rebuild_predictor,
)
from repro.data import load_dataset
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.queries.evaluate import brute_force_window
from repro.serve import IndexServer, ServeConfig
from repro.spatial.rect import Rect
from repro.storage.persist import save_index
from tests.brute import assert_knn, assert_windows, processor_windows


@pytest.fixture()
def processor(osm_points, sp_builder, fast_config):
    index = ZMIndex(builder=sp_builder).build(osm_points)
    return UpdateProcessor(index, fast_config), osm_points


class TestSideList:
    def test_insert_then_query(self, processor):
        proc, _pts = processor
        p = np.array([0.123456, 0.654321])
        assert not proc.point_query(p)
        proc.insert(p)
        assert proc.point_query(p)
        assert proc.n_pending == 1

    def test_delete_base_point(self, processor):
        proc, pts = processor
        assert proc.delete(pts[5])
        assert not proc.point_query(pts[5])
        assert proc.n_effective == len(pts) - 1

    def test_delete_inserted_point(self, processor):
        proc, _pts = processor
        p = np.array([0.42, 0.43])
        proc.insert(p)
        assert proc.delete(p)
        assert not proc.point_query(p)
        assert proc.n_pending == 0

    def test_delete_missing_point_returns_false(self, processor):
        proc, _pts = processor
        assert not proc.delete(np.array([9.9, 9.9]))

    def test_reinsert_deleted_base_point(self, processor):
        proc, pts = processor
        proc.delete(pts[7])
        proc.insert(pts[7])
        assert proc.point_query(pts[7])
        assert proc.n_effective == len(pts)

    def test_double_delete_returns_false(self, processor):
        proc, pts = processor
        assert proc.delete(pts[9])
        assert not proc.delete(pts[9])


class TestQueryMerging:
    def test_window_includes_inserts_excludes_deletes(self, processor):
        proc, pts = processor
        window = Rect.centered(np.array([0.5, 0.5]), 0.2)
        inside_new = np.array([0.5, 0.5])
        proc.insert(inside_new)
        victim = pts[window.contains_points(pts)]
        if len(victim):
            proc.delete(victim[0])
        result = proc.window_query(window)
        truth = brute_force_window(proc.current_points(), window)
        assert len(result) == len(truth)
        windows = [window, Rect.centered(np.array([0.5, 0.5]), 0.05), Rect.unit()]
        for got, w in zip(processor_windows(proc, windows), windows):
            assert len(got) == len(brute_force_window(proc.current_points(), w))

    def test_knn_sees_inserted_points(self, processor):
        proc, _pts = processor
        q = np.array([0.313, 0.717])
        proc.insert(q)  # exact match should be the nearest neighbour
        result = proc.knn_query(q, 3)
        assert np.allclose(result[0], q)

    def test_knn_skips_deleted_points(self, processor):
        proc, pts = processor
        q = pts[50]
        proc.delete(q)
        result = proc.knn_query(q, 5)
        assert not any(np.array_equal(r, q) for r in result)

    def test_current_points_consistency(self, processor):
        proc, pts = processor
        proc.insert(np.array([0.9, 0.9]))
        proc.delete(pts[0])
        current = proc.current_points()
        assert len(current) == len(pts)  # one in, one out
        assert proc.n_effective == len(current)


@pytest.mark.parametrize(
    "bad", [[0.1, 0.2, 0.3], [np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.5]]
)
def test_malformed_updates_are_refused(processor, bad):
    """A 3-D, NaN or infinite insert or delete raises ValueError and
    changes nothing: the cardinality and the side list stay put, and
    windows and kNN still answer like brute force."""
    proc, _pts = processor
    q = np.array([0.3, 0.7])
    proc.insert(q)
    before = (proc.n_effective, proc.n_pending)
    for update in (proc.insert, proc.delete):
        with pytest.raises(ValueError):
            update(np.array(bad))
    assert (proc.n_effective, proc.n_pending) == before
    current = proc.current_points()
    windows = [Rect.centered(q, 0.2), Rect.unit()]
    assert_windows("ZM", current, windows, processor_windows(proc, windows))
    assert_knn("ZM", current, q[None], 5, [proc.knn_query(q, 5)])


class TestNoPendingFastPath:
    """With nothing pending, window and kNN batches are the base index's
    answer itself; it must be the array the merge would have produced."""

    @pytest.mark.parametrize(
        "index_cls", [ZMIndex, MLIndex, RSMIIndex, LISAIndex]
    )
    def test_fast_path_equals_merge_path(
        self, index_cls, osm_points, sp_builder, fast_config
    ):
        index = index_cls(builder=sp_builder).build(osm_points)
        fast = UpdateProcessor(index, fast_config)
        merging = UpdateProcessor(index, fast_config)
        # One pending insert no window holds and no query is near forces
        # the merge path without changing any answer.
        merging.insert(np.array([50.0, 50.0]))
        rng = np.random.default_rng(4)
        centres = osm_points[rng.integers(0, len(osm_points), 24)]
        windows = [Rect.centered(c, 0.05) for c in centres]
        windows.append(Rect((2.0, 2.0), (3.0, 3.0)))  # empty answer
        for got, want in zip(
            processor_windows(fast, windows), processor_windows(merging, windows)
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        queries = np.vstack([centres, centres[:4] + 1e-3])
        for k in (1, 10):
            for got, want in zip(
                fast.knn_queries(queries, k), merging.knn_queries(queries, k)
            ):
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)

    def test_deletion_alone_takes_the_merge_path(self, processor):
        proc, pts = processor
        proc.delete(pts[3])
        assert not any(
            np.array_equal(pts[3], row) for row in proc.knn_queries(pts[3:4], 5)[0]
        )
        window = Rect.centered(pts[3], 0.01)
        assert not any(np.array_equal(pts[3], row) for row in proc.window_query(window))
        assert not any(
            np.array_equal(pts[3], row) for row in processor_windows(proc, [window])[0]
        )


class TestRebuild:
    def test_rebuild_clears_side_list(self, processor):
        proc, pts = processor
        for i in range(20):
            proc.insert(np.array([0.01 * i + 0.001, 0.5]))
        proc.delete(pts[3])
        n_before = proc.n_effective
        proc.rebuild()
        assert proc.n_pending == 0
        assert proc.n_effective == n_before
        assert proc.rebuilds == 1
        assert proc.index.n_points == n_before

    def test_queries_survive_rebuild(self, processor):
        proc, pts = processor
        extra = np.array([0.777, 0.333])
        proc.insert(extra)
        proc.rebuild()
        assert proc.point_query(extra)
        assert proc.point_query(pts[100])

    def test_heuristic_to_rebuild_triggers_on_drift(self, processor):
        proc, pts = processor
        # Massive skewed insertions shift the CDF.
        skew = load_dataset("Skewed", len(pts) // 3, seed=5)
        for p in skew:
            proc.insert(p)
        assert proc.to_rebuild()

    def test_heuristic_no_rebuild_when_unchanged(self, processor):
        proc, _pts = processor
        assert not proc.to_rebuild()

    def test_unbuilt_index_rejected(self, sp_builder, fast_config):
        with pytest.raises(ValueError):
            UpdateProcessor(ZMIndex(builder=sp_builder), fast_config)

    @pytest.mark.parametrize(
        "cls,params",
        [
            (ZMIndex, {"bits": 12, "branching": 2}),
            (MLIndex, {"n_references": 5, "branching": 2, "seed": 3}),
            (RSMIIndex, {"leaf_capacity": 300, "fanout": 2, "bits": 12}),
            (LISAIndex, {"grid_size": 6, "shard_size": 40}),
        ],
        ids=lambda v: getattr(v, "name", ""),
    )
    def test_rebuild_keeps_constructor_parameters(
        self, cls, params, osm_points, sp_builder, fast_config
    ):
        """Without an explicit factory a rebuild builds into an index of the
        same class, builder, block size and declared parameters."""
        assert set(params) == set(cls.state_params)
        index = cls(builder=sp_builder, block_size=50, **params).build(osm_points[:600])
        proc = UpdateProcessor(index, fast_config)
        proc.insert(np.array([0.5, 0.5]))
        proc.rebuild()
        rebuilt = proc.index
        assert rebuilt is not index and type(rebuilt) is cls
        assert rebuilt.builder is sp_builder
        assert rebuilt._params() == {"block_size": 50, **params}
        assert rebuilt.n_points == 601


def _snapshot_members(index, path) -> dict[str, bytes]:
    """``save_index``'s archive, member by member (the zip's own
    timestamps excluded)."""
    save_index(index, path)
    with zipfile.ZipFile(path) as zf:
        return {info.filename: zf.read(info) for info in zf.infolist()}


def test_processor_and_server_rebuild_the_same_successor(
    osm_points, sp_builder, fast_config, tmp_path
):
    """One rebuild path: the same updates, then ``rebuild()`` on a bare
    processor and ``rebuild_now()`` on a server, give the same index
    bytes and the same D'."""
    index = ZMIndex(builder=sp_builder).build(osm_points[:800])
    processor = UpdateProcessor(index, fast_config)
    inserts = load_dataset("Skewed", 60, seed=3)
    with IndexServer(index, ServeConfig(auto_rebuild=False), fast_config) as server:
        for target in (processor, server):
            for p in inserts:
                target.insert(p)
            for p in (*osm_points[:20], inserts[0], inserts[5]):
                assert target.delete(p)
        processor.rebuild()
        server.rebuild_now()
        served = server._gen.processor
        np.testing.assert_array_equal(
            served.current_points(), processor.current_points()
        )
        assert _snapshot_members(served.index, tmp_path / "served.npz") == (
            _snapshot_members(processor.index, tmp_path / "bare.npz")
        )


class TestRebuildPredictor:
    def test_feature_vector(self):
        x = RebuildPredictor.features(10_000, 0.3, 4, 0.5, 0.8)
        assert x.shape == (5,)
        assert x[0] == pytest.approx(0.5)

    def test_fit_and_predict(self):
        rng = np.random.default_rng(0)
        # Label = 1 when the CDF similarity dropped below 0.9.
        x = np.column_stack(
            [
                rng.random(200) * 0.5 + 0.3,
                rng.random(200),
                rng.random(200),
                rng.random(200),
                rng.random(200),
            ]
        )
        y = (x[:, 4] < 0.9).astype(float)
        predictor = RebuildPredictor(seed=0)
        predictor.fit(x, y, epochs=800)
        correct = sum(
            predictor.should_rebuild(10_000, r[1], int(r[2] * 16), r[3], r[4])
            == bool(r[4] < 0.9)
            for r in x
        )
        assert correct / len(x) > 0.85

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            RebuildPredictor().should_rebuild(10, 0.0, 1, 0.0, 1.0)

    def test_bad_feature_shape_rejected(self):
        with pytest.raises(ValueError):
            RebuildPredictor().fit(np.zeros((5, 3)), np.zeros(5))

    def test_training_pipeline(self, fast_config):
        """End-to-end ground-truth generation + training (tiny scale)."""
        from repro.core.build_processor import ELSIModelBuilder

        predictor = train_rebuild_predictor(
            lambda: ZMIndex(builder=ELSIModelBuilder(fast_config, method="SP")),
            cardinalities=(500,),
            deltas=(0.0,),
            insert_fractions=(0.05, 0.2),
            n_queries=30,
        )
        assert predictor._fitted
        # The trained predictor integrates with the processor.
        index = ZMIndex(
            builder=ELSIModelBuilder(fast_config, method="SP")
        ).build(load_dataset("OSM1", 500))
        proc = UpdateProcessor(index, fast_config, predictor=predictor)
        assert isinstance(proc.to_rebuild(), bool)
