"""Unit tests for TrainedModel, OriginalBuilder and the predict-and-scan
correctness invariant (Section III, condition 2)."""

import numpy as np
import pytest

from repro.indices.base import BuildStats, OriginalBuilder, TrainedModel
from repro.ml.ffn import FFN
from repro.ml.trainer import TrainConfig


def _sorted_keys(n: int = 500, seed: int = 0) -> np.ndarray:
    return np.sort(np.random.default_rng(seed).random(n) ** 2)


class TestTrainedModel:
    def test_normalise_range(self):
        model = TrainedModel(FFN([1, 4, 1]), key_lo=10.0, key_hi=20.0, n_indexed=5)
        np.testing.assert_allclose(
            model.normalise(np.array([10.0, 15.0, 20.0])), [0.0, 0.5, 1.0]
        )

    def test_normalise_degenerate_range(self):
        model = TrainedModel(FFN([1, 4, 1]), key_lo=5.0, key_hi=5.0, n_indexed=3)
        np.testing.assert_array_equal(model.normalise(np.array([5.0, 7.0])), [0.0, 0.0])

    def test_positions_clipped(self):
        model = TrainedModel(FFN([1, 4, 1], seed=0), 0.0, 1.0, n_indexed=10)
        pos = model.predict_positions(np.array([-100.0, 0.5, 100.0]))
        assert np.all((pos >= 0) & (pos <= 9))

    def test_invocation_counter(self):
        model = TrainedModel(FFN([1, 4, 1]), 0.0, 1.0, n_indexed=10)
        model.predict_positions(np.array([0.1, 0.2, 0.3]))
        assert model.invocations == 3

    def test_error_bounds_guarantee(self):
        """After measure_error_bounds, every indexed key's true position
        lies within [pred - err_l, pred + err_u]."""
        keys = _sorted_keys(800)
        builder = OriginalBuilder(train_config=TrainConfig(epochs=80))
        model = builder.build_model(keys, np.column_stack([keys, keys]), BuildStats())
        for i in (0, 100, 400, 799):
            lo, hi = model.search_ranges(np.array([keys[i]]))
            assert lo <= i < hi

    def test_error_width(self):
        model = TrainedModel(FFN([1, 4, 1]), 0.0, 1.0, n_indexed=10)
        model.err_l, model.err_u = 3, 7
        assert model.error_width == 10

    def test_empty_bounds(self):
        model = TrainedModel(FFN([1, 4, 1]), 0.0, 1.0, n_indexed=0)
        model.measure_error_bounds(np.empty(0))
        assert model.error_width == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            TrainedModel(FFN([1, 4, 1]), 0.0, 1.0, n_indexed=-1)


class TestOriginalBuilder:
    def test_builds_model_with_stats(self):
        keys = _sorted_keys(300)
        pts = np.column_stack([keys, keys])
        stats = BuildStats()
        builder = OriginalBuilder(train_config=TrainConfig(epochs=60))
        model = builder.build_model(keys, pts, stats)
        assert model.method_name == "OG"
        assert model.train_set_size == 300
        assert stats.n_models == 1
        assert stats.train_seconds > 0
        assert stats.methods_used == {"OG": 1}

    def test_empty_partition_rejected(self):
        builder = OriginalBuilder()
        with pytest.raises(ValueError):
            builder.build_model(np.empty(0), np.empty((0, 2)), BuildStats())
