"""Tests for index persistence (save/load round-trips)."""

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import FloodIndex, LISAIndex, MLIndex, PGMBuilder, RSMIIndex, ZMIndex
from repro.spatial.rect import Rect
from repro.storage.persist import (
    load_index,
    load_zm_index,
    save_index,
    save_zm_index,
)


@pytest.fixture()
def built_index(osm_points):
    config = ELSIConfig(train_epochs=80)
    return ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(osm_points)


class TestRoundTrip:
    def test_point_queries_identical(self, built_index, osm_points, tmp_path):
        path = tmp_path / "zm.npz"
        save_zm_index(built_index, path)
        loaded = load_zm_index(path)
        for p in osm_points[::50]:
            assert loaded.point_query(p) == built_index.point_query(p)

    def test_window_queries_identical(self, built_index, osm_points, tmp_path):
        path = tmp_path / "zm.npz"
        save_zm_index(built_index, path)
        loaded = load_zm_index(path)
        window = Rect.centered(np.array([0.5, 0.5]), 0.1)
        a = built_index.window_query(window)
        b = loaded.window_query(window)
        assert len(a) == len(b)

    def test_predictions_bitwise_equal(self, built_index, tmp_path):
        path = tmp_path / "zm.npz"
        save_zm_index(built_index, path)
        loaded = load_zm_index(path)
        keys = built_index.store.keys[::37]
        np.testing.assert_array_equal(
            built_index.model.stage1.predict_positions(keys),
            loaded.model.stage1.predict_positions(keys),
        )
        assert loaded.model.stage1.err_l == built_index.model.stage1.err_l
        assert loaded.model.stage1.err_u == built_index.model.stage1.err_u

    def test_metadata_preserved(self, built_index, tmp_path):
        path = tmp_path / "zm.npz"
        save_zm_index(built_index, path)
        loaded = load_zm_index(path)
        assert loaded.n_points == built_index.n_points
        assert loaded.bits == built_index.bits
        assert loaded.bounds == built_index.bounds
        assert loaded.model.stage1.method_name == "SP"

    def test_two_stage_round_trip(self, osm_points, tmp_path):
        config = ELSIConfig(train_epochs=60)
        index = ZMIndex(
            builder=ELSIModelBuilder(config, method="SP"), branching=4
        ).build(osm_points)
        path = tmp_path / "zm2.npz"
        save_zm_index(index, path)
        loaded = load_zm_index(path)
        assert loaded.model.is_two_stage == index.model.is_two_stage
        for p in osm_points[::100]:
            assert loaded.point_query(p)

    def test_pla_model_round_trip(self, osm_points, tmp_path):
        index = ZMIndex(builder=PGMBuilder(epsilon_positions=32)).build(osm_points)
        path = tmp_path / "zm_pgm.npz"
        save_zm_index(index, path)
        loaded = load_zm_index(path)
        assert loaded.model.stage1.err_l == index.model.stage1.err_l
        for p in osm_points[::100]:
            assert loaded.point_query(p)

    def test_native_inserts_preserved(self, built_index, tmp_path):
        extra = np.array([0.123, 0.456])
        built_index.insert(extra)
        path = tmp_path / "zm3.npz"
        save_zm_index(built_index, path)
        loaded = load_zm_index(path)
        assert loaded.point_query(extra)
        assert loaded.n_points == built_index.n_points


ALL_PERSISTABLE = (ZMIndex, MLIndex, LISAIndex, FloodIndex, RSMIIndex)


class TestGenericDispatch:
    """save_index/load_index round-trips for every supported index type."""

    @pytest.mark.parametrize("cls", ALL_PERSISTABLE, ids=lambda c: c.name)
    def test_round_trip_equality(self, cls, osm_points, tmp_path):
        config = ELSIConfig(train_epochs=80)
        index = cls(builder=ELSIModelBuilder(config, method="SP")).build(osm_points)
        path = tmp_path / f"{cls.name}.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert type(loaded) is cls
        assert loaded.n_points == index.n_points
        assert loaded.bounds == index.bounds
        # Point membership must agree everywhere: hits and misses.
        rng = np.random.default_rng(3)
        probes = np.vstack([osm_points[::40], rng.random((30, 2)) + 1.5])
        np.testing.assert_array_equal(
            loaded.point_queries(probes), index.point_queries(probes)
        )
        # Window answers must be set-equal.
        window = Rect.centered(np.array([0.5, 0.5]), 0.2)
        a = np.asarray(sorted(map(tuple, index.window_query(window))))
        b = np.asarray(sorted(map(tuple, loaded.window_query(window))))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("cls", ALL_PERSISTABLE, ids=lambda c: c.name)
    def test_round_trip_knn(self, cls, osm_points, tmp_path):
        config = ELSIConfig(train_epochs=80)
        index = cls(builder=ELSIModelBuilder(config, method="SP")).build(osm_points)
        path = tmp_path / f"{cls.name}-knn.npz"
        save_index(index, path)
        loaded = load_index(path)
        for q in osm_points[::500]:
            np.testing.assert_array_equal(
                loaded.knn_query(q, 5), index.knn_query(q, 5)
            )

    def test_unsupported_type_clear_error(self, tmp_path):
        with pytest.raises(TypeError, match="supported index types"):
            save_index(object(), tmp_path / "other.npz")

    def test_rsmi_round_trip_after_inserts(self, osm_points, tmp_path):
        """RSMI persists including insertion-widened leaves and new subtrees."""
        config = ELSIConfig(train_epochs=60)
        rsmi = RSMIIndex(
            builder=ELSIModelBuilder(config, method="SP"), leaf_capacity=200
        )
        rsmi.build(osm_points[:1500])
        rng = np.random.default_rng(7)
        extra = rng.random((40, 2))
        for p in extra:
            rsmi.insert(p)
        path = tmp_path / "rsmi.npz"
        save_index(rsmi, path)
        loaded = load_index(path)
        assert type(loaded) is RSMIIndex
        assert loaded.n_points == rsmi.n_points
        assert loaded.depth() == rsmi.depth()
        assert loaded.n_models() == rsmi.n_models()
        probes = np.vstack([osm_points[:1500:30], extra, rng.random((20, 2)) + 1.5])
        np.testing.assert_array_equal(
            loaded.point_queries(probes), rsmi.point_queries(probes)
        )
        windows = [Rect.centered(np.array([0.4, 0.6]), 0.15)]
        for a, b in zip(rsmi.window_queries(windows), loaded.window_queries(windows)):
            np.testing.assert_array_equal(a, b)

    def test_rsmi_snapshot_with_build_strategy_key_loads(self, osm_points, tmp_path):
        """Snapshots written while RSMI had a ``build_strategy`` option
        carry that key in their metadata; it is ignored on load."""
        import json

        from tests.brute import assert_windows, point_truth

        config = ELSIConfig(train_epochs=60)
        rsmi = RSMIIndex(
            builder=ELSIModelBuilder(config, method="SP"), leaf_capacity=300
        ).build(osm_points)
        new_path, old_path = tmp_path / "rsmi.npz", tmp_path / "rsmi-old.npz"
        save_index(rsmi, new_path)
        with np.load(new_path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(arrays["meta"].tobytes().decode())
        assert "build_strategy" not in meta
        old_meta = {**meta, "build_strategy": "recursive"}
        arrays["meta"] = np.frombuffer(json.dumps(old_meta).encode(), dtype=np.uint8)
        np.savez_compressed(old_path, **arrays)

        loaded = load_index(old_path)
        assert type(loaded) is RSMIIndex
        assert not hasattr(loaded, "build_strategy")
        assert loaded.n_models() == rsmi.n_models()
        probes = np.vstack([osm_points[::20], osm_points[:30] + 1.5])
        np.testing.assert_array_equal(
            loaded.point_queries(probes), point_truth(osm_points, probes)
        )
        windows = [Rect.centered(osm_points[i], 0.15) for i in (3, 700, 1500)]
        assert_windows("RSMI", osm_points, windows, loaded.window_queries(windows))

    def test_zm_specific_loader_still_works(self, built_index, tmp_path):
        path = tmp_path / "generic-zm.npz"
        save_index(built_index, path)
        loaded = load_zm_index(path)
        assert loaded.n_points == built_index.n_points


class TestErrors:
    def test_unbuilt_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_zm_index(ZMIndex(), tmp_path / "x.npz")

    def test_wrong_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, meta=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
        with pytest.raises(ValueError):
            load_zm_index(path)

    def test_unknown_format_rejected_by_dispatch(self, tmp_path):
        path = tmp_path / "junk2.npz"
        np.savez(path, meta=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
        with pytest.raises(ValueError, match="other"):
            load_index(path)
