"""Tests for fused batch inference and the opt-in float32 mode."""

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import FloodIndex, LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.ml.ffn import FFN
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.perf.fused_infer import (
    FusedInferenceEngine,
    fusion_rejection_reason,
    resolve_dtype,
)
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

    def test_rejection_lands_in_counter(self, osm_points):
        """The why-not-fused satellite: rejections must be observable."""
        tracer = get_tracer()
        tracer.enable()
        try:
            before = get_registry().counter(
                "perf.fusion_rejected", reason="single_model", context="rmi"
            ).snapshot()
            # LISA uses a branching-1 RMI -> single_model rejection.
            LISAIndex(builder=_builder()).build(osm_points)
            after = get_registry().counter(
                "perf.fusion_rejected", reason="single_model", context="rmi"
            ).snapshot()
        finally:
            tracer.disable()
            tracer.reset()
        assert after == before + 1

    def test_try_build_returns_none_on_rejection(self):
        assert FusedInferenceEngine.try_build([]) is None


# ----------------------------------------------------------------------
# Engine correctness
# ----------------------------------------------------------------------
class TestEngineParity:
    def test_rmi_fuses_and_ranges_contain_per_model(self, osm_points):
        index = ZMIndex(builder=_builder(), branching=4).build(osm_points)
        model = index.model
        assert model.fused
        leaves = model._leaves
        engine = leaves._engine
        # Both paths must answer the actual queries identically: the fused
        # bounds are re-measured, so predict-and-scan stays exact.
        rng = np.random.default_rng(0)
        probes = _probe_points(osm_points, rng)
        fused_res = index.point_queries(probes)
        leaves._engine = None
        try:
            assert not model.fused
            plain_res = index.point_queries(probes)
        finally:
            leaves._engine = engine
        np.testing.assert_array_equal(fused_res, plain_res)

    @pytest.mark.parametrize("cls", (ZMIndex, MLIndex), ids=lambda c: c.name)
    def test_fused_batch_queries_match_scalar(self, cls, osm_points):
        """Fused two-stage lookups, batched and one at a time (where the
        engine sees single-key batches), equal brute force."""
        index = cls(builder=_builder(), branching=4).build(osm_points)
        assert index.model.fused
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
        index = FloodIndex(builder=_builder(), n_columns=6).build(osm_points)
        assert index._models.fused
        assert index._models._engine.k == len(list(index.runs()))
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

    def test_engine_predictions_match_member_semantics(self, osm_points):
        """Each member's fused range covers the key's true local rank."""
        index = ZMIndex(builder=_builder(), branching=4).build(osm_points)
        model = index.model
        engine = model._leaves._engine
        assert engine is not None
        for midx in range(engine.k):
            member = engine.models[midx]
            positions = None
            for branch, b_midx in enumerate(model._member_of_branch):
                if b_midx == midx:
                    positions = model._stage2_positions[branch]
                    break
            assert positions is not None
            member_keys = index.store.keys[positions]
            lo, hi = engine.search_ranges(
                np.full(len(member_keys), midx), member_keys
            )
            ranks = np.arange(len(member_keys))
            assert np.all(lo <= ranks)
            assert np.all(ranks < hi)
            assert member is not None


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
        assert f32.model._leaves._engine.dtype_name == "float32"
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
        assert f32._models._engine.dtype_name == "float32"
        rng = np.random.default_rng(7)
        probes = _probe_points(osm_points, rng)
        np.testing.assert_array_equal(
            f32.point_queries(probes), f64.point_queries(probes)
        )

    def test_memory_halved(self, osm_points):
        f64 = ZMIndex(builder=_builder("float64"), branching=4).build(osm_points)
        f32 = ZMIndex(builder=_builder("float32"), branching=4).build(osm_points)
        assert f32.model._leaves._engine.nbytes * 2 == f64.model._leaves._engine.nbytes
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
