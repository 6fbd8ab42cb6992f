"""Unit tests for the FFN training loop."""

import numpy as np
import pytest

from repro.ml.ffn import FFN
from repro.ml.trainer import TrainConfig, train_regressor


def test_fits_linear_function():
    x = np.linspace(0, 1, 100)
    y = 2 * x - 1
    net = FFN([1, 16, 1], seed=0)
    result = train_regressor(net, x, y, TrainConfig(epochs=400))
    assert result.final_loss < 1e-3
    pred = net.predict(np.array([0.25, 0.75]))
    np.testing.assert_allclose(pred, [-0.5, 0.5], atol=0.1)


def test_result_metadata():
    x = np.linspace(0, 1, 20)
    net = FFN([1, 4, 1])
    result = train_regressor(net, x, x, TrainConfig(epochs=50, patience=1000))
    assert result.epochs_run == 50
    assert len(result.loss_history) == 50
    assert result.elapsed_seconds > 0


def test_early_stopping_on_plateau():
    # Constant targets from a zeroed network plateau instantly.
    x = np.linspace(0, 1, 20)
    y = np.zeros(20)
    net = FFN([1, 4, 1], seed=0)
    for w in net.weights:
        w[:] = 0.0
    result = train_regressor(net, x, y, TrainConfig(epochs=1000, patience=10))
    assert result.epochs_run <= 20


def test_empty_data_rejected():
    with pytest.raises(ValueError):
        train_regressor(FFN([1, 2, 1]), np.empty(0), np.empty(0))


@pytest.mark.parametrize("epochs", [0, -1])
def test_no_epochs_rejected_naming_the_field(epochs):
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=epochs)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        train_regressor(FFN([1, 2, 1]), np.zeros(3), np.zeros(4))


def test_training_cost_grows_with_set_size():
    """T(n) grows with n — the premise of ELSI's cost model (Section VI)."""
    small = np.linspace(0, 1, 50)
    large = np.linspace(0, 1, 5_000)
    config = TrainConfig(epochs=100, patience=1_000)
    r_small = train_regressor(FFN([1, 16, 1], seed=0), small, small, config)
    r_large = train_regressor(FFN([1, 16, 1], seed=0), large, large, config)
    assert r_large.elapsed_seconds > r_small.elapsed_seconds
