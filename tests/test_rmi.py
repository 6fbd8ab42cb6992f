"""Unit tests for the recursive model index."""

import numpy as np
import pytest

from repro.indices.base import BuildStats, OriginalBuilder
from repro.indices import rmi as rmi_module
from repro.indices.rmi import RMIModel
from repro.ml.trainer import TrainConfig


def _sorted_data(n: int = 3_000, seed: int = 0):
    keys = np.sort(np.random.default_rng(seed).random(n) ** 3)
    pts = np.column_stack([keys, keys])
    return keys, pts


@pytest.fixture()
def builder():
    return OriginalBuilder(train_config=TrainConfig(epochs=60))


def test_single_stage(builder):
    keys, pts = _sorted_data()
    stats = BuildStats()
    rmi = RMIModel(builder, branching=1).fit(keys, pts, stats)
    assert not rmi.is_two_stage
    assert stats.n_models == 1


def test_two_stage_builds_submodels(builder):
    keys, pts = _sorted_data()
    stats = BuildStats()
    rmi = RMIModel(builder, branching=4).fit(keys, pts, stats)
    assert rmi.is_two_stage
    assert stats.n_models >= 2
    assert len(rmi.stage2) == 4


def test_small_set_stays_single_stage(builder, monkeypatch):
    """Below ``MIN_PARTITION_SIZE`` keys an RMI keeps one model."""
    keys, pts = _sorted_data(n=rmi_module.MIN_PARTITION_SIZE - 1)
    assert not RMIModel(builder, branching=8).fit(keys, pts, BuildStats()).is_two_stage
    monkeypatch.setattr(rmi_module, "MIN_PARTITION_SIZE", 100)
    keys, pts = _sorted_data(n=100)
    assert RMIModel(builder, branching=8).fit(keys, pts, BuildStats()).is_two_stage


def test_search_range_contains_every_key(builder):
    """The global predict-and-scan guarantee holds through two stages."""
    keys, pts = _sorted_data()
    rmi = RMIModel(builder, branching=4).fit(keys, pts, BuildStats())
    for i in range(0, len(keys), 97):
        lo, hi = rmi.search_ranges(keys[i : i + 1])
        assert lo[0] <= i < hi[0], f"key rank {i} outside [{lo[0]}, {hi[0]})"


def test_two_stage_narrower_scans(builder):
    keys, pts = _sorted_data(n=5_000)
    single = RMIModel(builder, branching=1).fit(keys, pts, BuildStats())
    multi = RMIModel(builder, branching=8).fit(keys, pts, BuildStats())

    def avg_width(rmi):
        lo, hi = zip(*(rmi.search_ranges(keys[i : i + 1]) for i in range(0, 5_000, 111)))
        return np.mean(np.subtract(hi, lo))

    assert avg_width(multi) < avg_width(single)


def test_routing_deterministic(builder):
    keys, pts = _sorted_data()
    rmi = RMIModel(builder, branching=4).fit(keys, pts, BuildStats())
    a = rmi._route(keys[:50])
    b = rmi._route(keys[:50])
    np.testing.assert_array_equal(a, b)


def test_models_listing(builder):
    keys, pts = _sorted_data()
    rmi = RMIModel(builder, branching=3).fit(keys, pts, BuildStats())
    models = rmi.models
    assert models[0] is rmi.stage1
    assert rmi.max_error_width >= 0
    assert rmi.invocations > 0


def test_empty_fit_rejected(builder):
    with pytest.raises(ValueError):
        RMIModel(builder).fit(np.empty(0), np.empty((0, 2)), BuildStats())


def test_invalid_branching(builder):
    with pytest.raises(ValueError):
        RMIModel(builder, branching=0)
