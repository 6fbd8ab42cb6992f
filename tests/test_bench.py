"""Tests for the experiment harness: scales, the timing rule, the per-seed
context and single cells (the whole grid: test_experiment_drivers.py)."""

import dataclasses

import pytest

from repro.bench.experiments import KEY, Cell, Context, run_cell
from repro.bench.harness import ExperimentScale, format_table, timed
from repro.bench.views import by_seed, tables
from repro.core.config import ELSIConfig


class TestScale:
    def test_presets(self):
        for maker in (ExperimentScale.smoke, ExperimentScale.default, ExperimentScale.large):
            scale = maker()
            assert scale.n > 0
            assert scale.k == 25  # the paper's kNN k
        # The seeds belong to the preset: one for CI, >= 3 for a report.
        assert len(ExperimentScale.smoke().seeds) == 1
        assert len(ExperimentScale.default().seeds) >= 3

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
    def test_timed(self):
        calls = []
        result, seconds = timed(lambda: calls.append(1) or len(calls))
        assert (result, len(calls)) == (1, 1)  # a build: one cold call
        assert seconds >= 0
        result, seconds = timed(lambda: calls.append(1) or len(calls), warmup=True, repeats=3)
        assert (result, len(calls)) == (5, 5)  # one untimed pass, then three timed
        assert seconds >= 0

    def test_query_us(self, osm_points, sp_builder):
        from repro.indices import ZMIndex
        from repro.queries.workload import point_workload

        index = ZMIndex(builder=sp_builder).build(osm_points)
        queries = point_workload(osm_points, 20, seed=0)
        results, us = Context(ExperimentScale.smoke()).query_us(index, queries)
        assert all(results) and len(results) == 20
        assert us > 0

    def test_measure_empty_rejected(self):
        with pytest.raises(ValueError):
            Context(ExperimentScale.smoke()).query_us(None, [])

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



def _cell(*fields, measures):
    """A grid cell that measures ``measures`` (``grid`` adds them after
    construction the same way)."""
    cell = Cell(*fields)
    cell.measures.update(measures)
    return cell

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
        hand-copied list left out (``zeta``, ``gamma``) survive it."""
        base = ELSIConfig(gamma=0.5, zeta=0.6)
        ctx = Context(ExperimentScale.smoke())
        ctx.config = base
        cfg = ctx.config_with(lam=0.3)
        assert cfg == dataclasses.replace(base, lam=0.3)
        assert (cfg.gamma, cfg.zeta) == (0.5, 0.6)
        assert cfg is not base and base.lam == 0.8

    def test_build_learned_and_traditional(self, ctx):
        points = ctx.dataset("OSM1")
        index, seconds = ctx.build(Cell("OSM1", 600, "ZM", "SP"), points)
        assert index.n_points == 600
        assert dict(index.build_stats.methods_used) == {"SP": index.build_stats.n_models}
        assert seconds > 0
        index, seconds = ctx.build(Cell("OSM1", 600, "KDB", ""), points)
        assert index.n_points == 600

    def test_selector_trained_lazily(self, ctx):
        selector = ctx.selector
        assert selector is ctx.selector  # cached
        # ... on records collected once and shared with Figure 6's cell.
        assert ctx.selector_records(ctx.seed) is ctx.selector_records(ctx.seed)
        choice = selector.select(600, 0.3, ["SP", "MR", "OG"], lam=0.8)
        assert choice in ("SP", "MR", "OG")

    def test_selector_records_collected_once(self, ctx, monkeypatch):
        from repro.bench import experiments

        seeds = []
        collect = experiments.collect_selector_data
        monkeypatch.setattr(
            experiments, "collect_selector_data",
            lambda *args, seed, **kwargs: seeds.append(seed) or collect(*args, seed=seed, **kwargs),
        )
        fresh = Context(ctx.scale)
        row = run_cell(fresh, Cell("controlled", 300, "ZM", "selector"))
        _ = fresh.selector
        assert seeds == [0, 1]  # the training grid once, the held-out grid once
        assert set(row["fig6a"]) == {"u=1"} and set(row["fig6b"]) == {"FFN", "RFR", "DTR", "RFC", "DTC"}
        assert all(0.0 <= a <= 1.0 for series in row["fig6b"].values() for a in series)

    def _rows(self, ctx, cells):
        return [dict(zip(KEY, cell.key(ctx.seed))) | run_cell(ctx, cell) for cell in cells]

    def test_table1_driver_structure(self, ctx):
        methods = ctx.config.methods
        rows = self._rows(ctx, [_cell("OSM1", 600, "ZM", m, measures={"point"}) for m in methods])
        table = tables(by_seed(rows))["table1"]
        assert [m for (m,) in table.cells] == list(methods)
        for method in methods:
            assert table.med(method, "|Error|") >= 0
            assert table.med(method, "|D_S|") >= 0
        assert all(row["point_us"] > 0 for row in rows)

    def test_fig13_size_defaults_scale_with_n(self, ctx):
        rows = self._rows(ctx, [_cell("OSM1", 600, "RR*", "", measures={"sizes"})])
        counts = tables(by_seed(rows))["fig13b_results"]
        series = [counts.med("RR*", col) for col in counts.cols]
        assert len(series) == 5
        # Expected result counts grow roughly geometrically.
        assert series[-1] > series[0]
