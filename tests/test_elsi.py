"""Unit tests for the ELSI system facade and ELSIConfig validation."""

import numpy as np
import pytest

from repro.core import ELSI, ELSIConfig
from repro.core.build_processor import ELSIModelBuilder
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = ELSIConfig()
        assert cfg.lam == 0.8
        assert cfg.w_q == 1.0
        assert cfg.zeta == 0.8
        assert cfg.gamma == 0.9
        assert cfg.methods == ("SP", "CL", "MR", "RS", "RL", "OG")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 1.5},
            {"lam": -0.1},
            {"w_q": 0.5},
            {"rho": 0.0},
            {"epsilon": 1.5},
            {"eta": 1},
            {"f_u": 0},
            {"methods": ()},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ELSIConfig(**kwargs)

    @pytest.mark.parametrize(
        "field,value", [("train_epochs", 0), ("train_epochs", -1), ("hidden_size", 0)]
    )
    def test_untrainable_net_rejected_naming_the_field(self, field, value):
        # Accepted before, these failed only at build: an IndexError on an
        # empty loss history, or a zero-width layer.
        with pytest.raises(ValueError, match=field):
            ELSIConfig(**{field: value})


class TestFacade:
    @pytest.fixture()
    def elsi(self, fast_config):
        return ELSI(fast_config)

    @pytest.mark.parametrize("cls", [ZMIndex, MLIndex, RSMIIndex, LISAIndex])
    def test_build_every_base_index(self, elsi, osm_points, cls):
        index = elsi.build(cls, osm_points, method="SP")
        assert index.n_points == len(osm_points)
        assert all(index.point_query(p) for p in osm_points[:50])

    def test_builder_without_selector_defaults_to_sp(self, elsi):
        builder = elsi.builder()
        assert isinstance(builder, ELSIModelBuilder)
        assert builder.fixed_method == "SP"

    def test_builder_with_trained_selector(self, elsi, osm_points):
        class FakeSelector:
            def select(self, n, dist_u, methods, lam, w_q):
                return "RS"

        elsi.selector = FakeSelector()
        index = elsi.build(ZMIndex, osm_points)
        assert "RS" in index.build_stats.methods_used

    def test_random_choice_builder(self, elsi):
        builder = elsi.builder(random_choice=True)
        assert builder.random_choice

    def test_updates_wrapper(self, elsi, osm_points):
        index = elsi.build(ZMIndex, osm_points, method="SP")
        proc = elsi.updates(index)
        proc.insert(np.array([0.5, 0.501]))
        assert proc.point_query(np.array([0.5, 0.501]))

    def test_train_selector_small_grid(self, elsi):
        scorer = elsi.train_selector(
            lambda b: ZMIndex(builder=b, branching=1),
            cardinalities=(300,),
            deltas=(0.0, 0.5),
            n_queries=30,
        )
        assert elsi.selector is scorer
        choice = scorer.select(300, 0.2, list(elsi.config.methods), lam=0.8)
        assert choice in elsi.config.methods

    def test_build_kwargs_forwarded(self, elsi, osm_points):
        index = elsi.build(RSMIIndex, osm_points, method="SP", leaf_capacity=500)
        assert index.leaf_capacity == 500
