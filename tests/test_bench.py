"""Tests for the benchmark harness and (tiny-scale) experiment drivers."""

import dataclasses

import numpy as np
import pytest

from repro.bench.experiments import Context
from repro.core.config import ELSIConfig
from repro.bench.harness import (
    ExperimentScale,
    format_table,
    measure_query_seconds,
    time_call,
)


class TestScale:
    def test_presets(self):
        for maker in (ExperimentScale.smoke, ExperimentScale.default, ExperimentScale.large):
            scale = maker()
            assert scale.n > 0
            assert scale.k == 25  # the paper's kNN k

    def test_ordering(self):
        assert ExperimentScale.smoke().n < ExperimentScale.default().n < ExperimentScale.large().n

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "default")
        assert ExperimentScale.from_env().name == "default"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            ExperimentScale.from_env()

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert ExperimentScale.from_env().name == "smoke"


class TestHarness:
    def test_time_call(self):
        result, seconds = time_call(sum, [1, 2, 3])
        assert result == 6
        assert seconds >= 0

    def test_measure_query_seconds(self, osm_points, sp_builder):
        from repro.indices import ZMIndex
        from repro.queries.workload import point_workload

        index = ZMIndex(builder=sp_builder).build(osm_points)
        queries = point_workload(osm_points, 20, seed=0)
        per_query = measure_query_seconds(index, queries)
        assert per_query > 0

    def test_measure_empty_rejected(self):
        with pytest.raises(ValueError):
            measure_query_seconds(None, [])

    def test_format_table(self):
        text = format_table(
            ["name", "value"], [["SP", 1.5], ["OG", 123456.0]], title="t"
        )
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "name" in lines[1]
        assert "SP" in lines[3]
        assert "1.23e+05" in text  # large floats in scientific notation

    def test_format_table_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestContext:
    @pytest.fixture(scope="class")
    def ctx(self):
        tiny = ExperimentScale(
            name="tiny",
            n=600,
            n_point_queries=40,
            n_window_queries=10,
            n_knn_queries=5,
            k=5,
            selector_cardinalities=(300,),
            selector_deltas=(0.0, 0.6),
            train_epochs=60,
            rl_steps=30,
        )
        return Context(tiny)

    def test_dataset_caching(self, ctx):
        a = ctx.dataset("OSM1")
        b = ctx.dataset("OSM1")
        assert a is b
        assert len(a) == 600

    def test_config_with_overrides(self, ctx):
        cfg = ctx.config_with(lam=0.3, rho=0.05)
        assert cfg.lam == 0.3
        assert cfg.rho == 0.05
        assert cfg.train_epochs == ctx.config.train_epochs

    def test_config_with_keeps_every_other_field(self):
        """An override replaces its field only: the fields the old
        hand-copied list left out (``zeta``, ``gamma``, ``parallelism``,
        ``dtype``, ``faults``) survive it."""
        base = ELSIConfig(
            gamma=0.5, zeta=0.6, parallelism="fused", dtype="float32",
            faults="snapshot.write=error:1",
        )
        ctx = Context(ExperimentScale.smoke(), _config=base)
        cfg = ctx.config_with(lam=0.3)
        assert cfg == dataclasses.replace(base, lam=0.3)
        assert (cfg.gamma, cfg.zeta, cfg.parallelism) == (0.5, 0.6, "fused")
        assert cfg is not base and base.lam == 0.8

    def test_build_learned_and_traditional(self, ctx):
        points = ctx.dataset("OSM1")
        index, seconds = ctx.build_learned("ZM", points, method="SP")
        assert index.n_points == 600
        assert seconds > 0
        index, seconds = ctx.build_traditional("KDB", points)
        assert index.n_points == 600

    def test_selector_trained_lazily(self, ctx):
        selector = ctx.selector
        assert selector is ctx.selector  # cached
        choice = selector.select(600, 0.3, ["SP", "MR", "OG"], lam=0.8)
        assert choice in ("SP", "MR", "OG")

    def test_table1_driver_structure(self, ctx):
        from repro.bench.experiments import table1_cost_decomposition

        rows = table1_cost_decomposition(ctx)
        assert {r["method"] for r in rows} == set(ctx.config.methods)
        for row in rows:
            assert row["error_width"] >= 0
            assert row["train_set_size"] >= 0

    def test_fig13_size_defaults_scale_with_n(self, ctx):
        from repro.bench.experiments import fig13_window_sweeps

        result = fig13_window_sweeps(ctx, lams=(0.8,))
        counts = result["by_size_counts"]["RR*"]
        # Expected result counts grow roughly geometrically.
        assert counts[-1] > counts[0]
