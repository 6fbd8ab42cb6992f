"""Unit tests for the ELSI build processor (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices.base import BuildStats
from repro.spatial.rect import Rect
from repro.spatial.zcurve import zvalues


@pytest.fixture(scope="module")
def partition(osm_points):
    bounds = Rect.bounding(osm_points)
    keys = zvalues(osm_points, bounds).astype(np.float64)
    order = np.argsort(keys, kind="stable")
    map_fn = lambda pts: zvalues(pts, bounds).astype(np.float64)  # noqa: E731
    return keys[order], osm_points[order], map_fn


@pytest.fixture()
def config():
    return ELSIConfig(train_epochs=80, rl_steps=40)


class TestMethodChoice:
    @pytest.mark.parametrize("method", ["SP", "CL", "MR", "RS", "RL", "OG"])
    def test_fixed_method_used(self, partition, config, method):
        keys, pts, map_fn = partition
        builder = ELSIModelBuilder(config, method=method)
        stats = BuildStats()
        model = builder.build_model(keys, pts, stats, map_fn)
        assert model.method_name == method
        assert stats.methods_used == {method: 1}

    def test_default_without_selector_is_sp(self, config):
        builder = ELSIModelBuilder(config)
        assert builder.fixed_method == "SP"

    def test_random_choice_varies(self, partition, config):
        keys, pts, map_fn = partition
        builder = ELSIModelBuilder(config, random_choice=True)
        stats = BuildStats()
        for _ in range(8):
            builder.build_model(keys, pts, stats, map_fn)
        assert len(stats.methods_used) >= 2  # several methods get picked

    def test_inapplicable_fixed_method_falls_back(self, partition, config):
        """CL without map_fn (the LISA case) silently falls back to SP."""
        keys, pts, _map_fn = partition
        builder = ELSIModelBuilder(config, method="CL")
        stats = BuildStats()
        model = builder.build_model(keys, pts, stats, map_fn=None)
        assert model.method_name == "SP"

    def test_unknown_method_rejected(self, config):
        with pytest.raises(ValueError):
            ELSIModelBuilder(config, method="XYZ")

    def test_selector_drives_choice(self, partition, config):
        keys, pts, map_fn = partition

        class AlwaysRS:
            def select(self, n, dist_u, methods, lam, w_q):
                assert "RS" in methods
                return "RS"

        builder = ELSIModelBuilder(config, selector=AlwaysRS())
        stats = BuildStats()
        model = builder.build_model(keys, pts, stats, map_fn)
        assert model.method_name == "RS"


class TestBuildCorrectness:
    @pytest.mark.parametrize("method", ["SP", "CL", "MR", "RS", "RL", "OG"])
    def test_error_bounds_hold(self, partition, config, method):
        """Predict-and-scan guarantee regardless of the build method."""
        keys, pts, map_fn = partition
        builder = ELSIModelBuilder(config, method=method)
        model = builder.build_model(keys, pts, BuildStats(), map_fn)
        for i in range(0, len(keys), 137):
            lo, hi = model.search_ranges(np.array([keys[i]]))
            assert lo <= i < hi

    def test_mr_failure_falls_back(self, config):
        """Bimodal keys defeat MR's pool; the chain falls back to SP."""
        cfg = ELSIConfig(train_epochs=40, epsilon=0.01)
        keys = np.sort(np.concatenate([np.zeros(300), np.ones(300)]))
        pts = np.column_stack([keys, keys])
        builder = ELSIModelBuilder(cfg, method="MR")
        stats = BuildStats()
        model = builder.build_model(keys, pts, stats, None)
        assert model.method_name == "SP"
        assert stats.methods_used == {"SP": 1}

    def test_training_set_smaller_than_data(self, partition, config):
        keys, pts, map_fn = partition
        for method in ("SP", "CL", "RS", "RL"):
            stats = BuildStats()
            ELSIModelBuilder(config, method=method).build_model(keys, pts, stats, map_fn)
            assert stats.train_set_size < len(keys), method

    def test_mr_zero_training_time(self, partition, config):
        keys, pts, map_fn = partition
        from repro.core.methods.model_reuse import ModelReuseMethod

        ModelReuseMethod(
            epsilon=config.epsilon,
            hidden_size=config.hidden_size,
            train_epochs=config.train_epochs,
        ).prepare()
        stats = BuildStats()
        ELSIModelBuilder(config, method="MR").build_model(keys, pts, stats, map_fn)
        assert stats.train_seconds == 0.0  # no online training at all

    def test_empty_partition_rejected(self, config):
        builder = ELSIModelBuilder(config)
        with pytest.raises(ValueError):
            builder.build_model(np.empty(0), np.empty((0, 2)), BuildStats())

    def test_stats_components_recorded(self, partition, config):
        keys, pts, map_fn = partition
        stats = BuildStats()
        ELSIModelBuilder(config, method="RS").build_model(keys, pts, stats, map_fn)
        assert stats.train_seconds > 0
        assert stats.extra_seconds > 0
        assert stats.error_bound_seconds > 0
        assert stats.n_models == 1
