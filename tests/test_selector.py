"""Unit tests for selector training, ground truth and the Fig. 6(b) baselines."""

import numpy as np
import pytest

from repro.core.config import ELSIConfig
from repro.core.selector import (
    DatasetRecord,
    TreeSelector,
    _og_baseline,
    best_method,
    collect_selector_data,
    records_to_samples,
    selector_accuracy,
    train_ffn_selector,
)
from repro.indices import ZMIndex


def _zm_factory(builder):
    """The base index the selector grids below are measured on."""
    return ZMIndex(builder=builder, branching=1)


def _synthetic_records() -> list[DatasetRecord]:
    """Clean synthetic speedup grid: MR dominates builds, OG queries."""
    records = []
    for n in (1_000, 5_000):
        for dist in (0.0, 0.3, 0.6, 0.9):
            r = DatasetRecord(n=n, dist_u=dist)
            r.speedups = {
                "MR": (50.0, 0.9),
                "SP": (10.0, 0.95),
                "RS": (5.0, 1.0),
                "OG": (1.0, 1.04),
            }
            records.append(r)
    return records


class TestGroundTruth:
    def test_best_method_extremes(self):
        record = _synthetic_records()[0]
        assert best_method(record, lam=1.0) == "MR"
        assert best_method(record, lam=0.0) == "OG"

    def test_records_to_samples(self):
        samples = records_to_samples(_synthetic_records())
        assert len(samples) == 8 * 4
        assert {s.method for s in samples} == {"MR", "SP", "RS", "OG"}


class TestFFNSelector:
    def test_learns_clean_grid(self):
        records = _synthetic_records()
        scorer = train_ffn_selector(
            records, method_names=("MR", "SP", "RS", "OG"), epochs=800
        )
        assert selector_accuracy(scorer, records, lam=1.0) == 1.0
        assert selector_accuracy(scorer, records, lam=0.0) == 1.0

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            train_ffn_selector([])


class TestTreeSelectors:
    @pytest.mark.parametrize("kind", ["RFR", "DTR"])
    def test_regression_variants(self, kind):
        records = _synthetic_records()
        selector = TreeSelector(kind, seed=0).fit(records)
        assert selector_accuracy(selector, records, lam=1.0) == 1.0
        # The same fitted regressor serves any lambda.
        assert selector_accuracy(selector, records, lam=0.0) == 1.0

    @pytest.mark.parametrize("kind", ["RFC", "DTC"])
    def test_classification_variants(self, kind):
        records = _synthetic_records()
        selector = TreeSelector(kind, seed=0).fit(records, lam=0.8)
        assert selector_accuracy(selector, records, lam=0.8) == 1.0

    def test_classification_wrong_lambda_rejected(self):
        selector = TreeSelector("DTC").fit(_synthetic_records(), lam=0.8)
        with pytest.raises(ValueError):
            selector.select(1_000, 0.0, ["MR", "OG"], lam=0.2)

    def test_classifier_inapplicable_prediction_falls_back(self):
        selector = TreeSelector("DTC").fit(_synthetic_records(), lam=1.0)
        # MR (the predicted best) missing from candidates -> first candidate.
        choice = selector.select(1_000, 0.0, ["SP", "OG"], lam=1.0)
        assert choice in ("SP", "OG")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TreeSelector("SVM")

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            TreeSelector("DTR").select(10, 0.0, ["SP"], lam=0.5)


class TestCollection:
    def test_collect_measures_every_method(self, fast_config):
        records = collect_selector_data(
            lambda b: ZMIndex(builder=b, branching=1),
            config=fast_config,
            cardinalities=(400,),
            deltas=(0.0, 0.6),
            n_queries=50,
        )
        assert len(records) == 2
        for record in records:
            assert set(record.speedups) == set(fast_config.methods)
            og_build, og_query = record.speedups["OG"]
            assert og_build == pytest.approx(1.0)
            assert og_query == pytest.approx(1.0)
            # Reduction methods build faster than OG.
            assert record.speedups["SP"][0] > 1.0

    def test_accuracy_requires_records(self):
        scorer = train_ffn_selector(_synthetic_records(), ("MR", "SP", "RS", "OG"), epochs=50)
        with pytest.raises(ValueError):
            selector_accuracy(scorer, [], lam=0.5)


class TestOGBaseline:
    def test_prefers_measured_og(self):
        assert _og_baseline({"OG": (2.0, 3.0), "SP": (9.0, 9.0)}) == (2.0, 3.0)

    def test_fallback_is_per_component_max(self):
        # A tuple max would pick ("A", (2.0, 0.1)) lexicographically and
        # pair the slowest build with an unrelated fast query time.
        timings = {"A": (2.0, 0.1), "B": (1.0, 5.0)}
        assert _og_baseline(timings) == (2.0, 5.0)

    def test_collect_without_og_normalises_to_slowest(self, fast_config):
        config = ELSIConfig(
            train_epochs=fast_config.train_epochs, methods=("SP", "CL")
        )
        records = collect_selector_data(
            _zm_factory,
            config=config,
            cardinalities=(400,),
            deltas=(0.0,),
            n_queries=30,
        )
        speedups = records[0].speedups
        # With the per-component baseline, each component's slowest method
        # measures exactly 1.0 and nothing falls below it.
        assert min(bs for bs, _qs in speedups.values()) == pytest.approx(1.0)
        assert min(qs for _bs, qs in speedups.values()) == pytest.approx(1.0)


class TestWindowAwareCollection:
    """The paper: "Costs of other query types, e.g., window queries, can
    also be considered" — the window-query ground-truth variant."""

    def test_window_kind_collects(self, fast_config):
        records = collect_selector_data(
            lambda b: ZMIndex(builder=b, branching=1),
            config=fast_config,
            cardinalities=(400,),
            deltas=(0.0,),
            n_queries=40,
            query_kind="window",
        )
        assert len(records) == 1
        og_build, og_query = records[0].speedups["OG"]
        assert og_build == pytest.approx(1.0)
        assert og_query == pytest.approx(1.0)

    def test_invalid_kind_rejected(self, fast_config):
        with pytest.raises(ValueError):
            collect_selector_data(
                lambda b: ZMIndex(builder=b),
                config=fast_config,
                cardinalities=(100,),
                deltas=(0.0,),
                query_kind="join",
            )
