"""Tests for multi-leaf batch prediction, the fused trainer's rejection
reasons and the opt-in float32 mode.

The leaf set's own parity and memory contracts are in
``tests/test_model_set.py``.
"""

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import FloodIndex, MLIndex, RSMIIndex, ZMIndex
from repro.indices.base import resolve_dtype
from repro.ml.ffn import FFN
from repro.ml.trainer import TrainConfig
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.perf.fused import can_fuse, fusion_rejection_reason
from repro.spatial.rect import Rect
from tests.brute import assert_knn, assert_windows, point_truth


def _builder(dtype="float64"):
    config = ELSIConfig(train_epochs=80, dtype=dtype)
    return ELSIModelBuilder(config, method="SP")


def _probe_points(points, rng, n_hits=200, n_misses=40):
    hits = points[rng.integers(0, len(points), n_hits)]
    misses = rng.random((n_misses, points.shape[1])) + 1.5
    return np.vstack([hits, misses])


# ----------------------------------------------------------------------
# Rejection reasons
# ----------------------------------------------------------------------
class TestRejectionReasons:
    def test_single_model(self):
        assert fusion_rejection_reason([FFN([1, 4, 1])]) == "single_model"

    def test_minibatch_config(self):
        class Cfg:
            batch_size = 32

        nets = [FFN([1, 4, 1]), FFN([1, 4, 1])]
        assert fusion_rejection_reason(nets, Cfg()) == "minibatch_config"

    def test_non_ffn(self):
        assert fusion_rejection_reason([FFN([1, 4, 1]), object()]) == "non_ffn"

    def test_mixed_shapes(self):
        nets = [FFN([1, 4, 1]), FFN([1, 8, 1])]
        assert fusion_rejection_reason(nets) == "mixed_shapes"

    def test_mixed_dtype(self):
        nets = [FFN([1, 4, 1]), FFN([1, 4, 1]).astype(np.float32)]
        assert fusion_rejection_reason(nets) == "mixed_dtype"

    def test_fusable(self):
        nets = [FFN([1, 4, 1], seed=i) for i in range(3)]
        assert fusion_rejection_reason(nets) is None

    def test_rejection_lands_in_counter(self):
        """A trainer rejection is observable, labelled with its reason."""
        tracer = get_tracer()
        counter = get_registry().counter(
            "perf.fusion_rejected", reason="single_model", context="train"
        )
        tracer.enable()
        try:
            before = counter.snapshot()
            assert not can_fuse([FFN([1, 4, 1])], TrainConfig())
            after = counter.snapshot()
        finally:
            tracer.disable()
            tracer.reset()
        assert after == before + 1


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
# float32 mode
# ----------------------------------------------------------------------
class TestFloat32:
    def test_resolve_dtype_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        assert resolve_dtype("float64") == "float32"
        monkeypatch.delenv("REPRO_DTYPE")
        assert resolve_dtype("float64") == "float64"
        with pytest.raises(ValueError, match="dtype"):
            resolve_dtype("float16")

    def test_config_rejects_unknown_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            ELSIConfig(dtype="float16")

    @pytest.mark.parametrize("cls", (ZMIndex, MLIndex), ids=lambda c: c.name)
    def test_query_parity_with_float64(self, cls, osm_points):
        """Same answers on hits and misses; the precision drop is absorbed
        by the re-measured error bounds, never by the results."""
        f64 = cls(builder=_builder("float64"), branching=4).build(osm_points)
        f32 = cls(builder=_builder("float32"), branching=4).build(osm_points)
        assert all(
            m.net.weights[0].dtype == np.float32 for m in f32.model._leaves.members
        )
        rng = np.random.default_rng(6)
        probes = _probe_points(osm_points, rng)
        np.testing.assert_array_equal(
            f32.point_queries(probes), f64.point_queries(probes)
        )
        windows = [Rect.centered(rng.random(2), 0.1) for _ in range(6)]
        for a, b in zip(f32.window_queries(windows), f64.window_queries(windows)):
            np.testing.assert_array_equal(a, b)
        queries = rng.random((6, 2))
        for a, b in zip(f32.knn_queries(queries, 5), f64.knn_queries(queries, 5)):
            np.testing.assert_array_equal(a, b)

    def test_flood_query_parity_with_float64(self, osm_points):
        f64 = FloodIndex(builder=_builder("float64"), n_columns=6).build(osm_points)
        f32 = FloodIndex(builder=_builder("float32"), n_columns=6).build(osm_points)
        assert all(run.model.net.weights[0].dtype == np.float32 for run in f32.runs())
        rng = np.random.default_rng(7)
        probes = _probe_points(osm_points, rng)
        np.testing.assert_array_equal(
            f32.point_queries(probes), f64.point_queries(probes)
        )

    def test_memory_halved(self, osm_points):
        f64 = ZMIndex(builder=_builder("float64"), branching=4).build(osm_points)
        f32 = ZMIndex(builder=_builder("float32"), branching=4).build(osm_points)
        def nbytes(index):
            nets = [m.net for m in index.model.models]
            return sum(a.nbytes for net in nets for a in net.weights + net.biases)

        assert nbytes(f32) * 2 == nbytes(f64)
        assert f32.store.keys.nbytes * 2 == f64.store.keys.nbytes
        for net in (m.net for m in f32.model.models if isinstance(m.net, FFN)):
            assert all(w.dtype == np.float32 for w in net.weights)
            assert all(b.dtype == np.float32 for b in net.biases)

    def test_float32_round_trips_through_persistence(self, osm_points, tmp_path):
        from repro.storage.persist import load_index, save_index

        f32 = ZMIndex(builder=_builder("float32"), branching=4).build(osm_points)
        path = tmp_path / "zm32.npz"
        save_index(f32, path)
        loaded = load_index(path)
        assert loaded.model.stage1.net.weights[0].dtype == np.float32
        rng = np.random.default_rng(8)
        probes = _probe_points(osm_points, rng)
        np.testing.assert_array_equal(
            loaded.point_queries(probes), f32.point_queries(probes)
        )
