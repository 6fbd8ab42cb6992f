"""The predict-and-scan invariant, walked over every keyed run.

Answers are right only because a scan of the predicted range, widened by
the inserts since the fit, holds the key's row (Section III, condition 2).
``assert_bounds_hold`` checks that directly, for every stored key of every
run of an index, rather than through queries that happen to probe it; the
tests run it after each transition that moves keys, models or counts:
build, built-in inserts and a snapshot round trip.
"""

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.indices.base import LearnedSpatialIndex
from repro.storage.persist import load_index, save_index

INDEX_CASES = [
    pytest.param(ZMIndex, {"branching": 4}, id="ZM"),
    pytest.param(MLIndex, {"branching": 4}, id="ML"),
    pytest.param(RSMIIndex, {"leaf_capacity": 300}, id="RSMI"),
    pytest.param(LISAIndex, {}, id="LISA"),
]


def assert_bounds_hold(index: LearnedSpatialIndex) -> int:
    """Every run's keys are sorted float64, and every stored key's true
    rank lies in the range its run scans for it.  Returns the number of
    keys checked."""
    checked = 0
    for run in index.runs():
        keys = run.store.keys
        assert keys.dtype == np.float64
        assert np.all(keys[:-1] <= keys[1:])
        lo, hi = run.scan_bounds(*run.model.search_ranges(keys))
        ranks = np.arange(len(keys))
        assert np.all(lo <= ranks) and np.all(ranks < hi)
        checked += len(keys)
    assert checked == index.n_points
    return checked


@pytest.mark.parametrize("dtype", ["float64"])
@pytest.mark.parametrize("cls,kwargs", INDEX_CASES)
def test_bounds_hold_after_every_transition(osm_points, tmp_path, cls, kwargs, dtype):
    config = ELSIConfig(train_epochs=60, dtype=dtype)
    index = cls(builder=ELSIModelBuilder(config, method="SP"), **kwargs).build(osm_points)
    assert assert_bounds_hold(index) == len(osm_points)

    rng = np.random.default_rng(3)
    near = osm_points[rng.integers(0, len(osm_points), 50)]
    for p in np.clip(near + rng.normal(0.0, 1e-3, near.shape), 0.0, 1.0):
        index.insert(p)
    assert sum(run.inserts for run in index.runs()) > 0
    assert assert_bounds_hold(index) == len(osm_points) + 50

    save_index(index, tmp_path / "index.npz")
    loaded = load_index(tmp_path / "index.npz")
    assert [run.inserts for run in loaded.runs()] == [run.inserts for run in index.runs()]
    assert assert_bounds_hold(loaded) == index.n_points


def test_walk_catches_a_narrowed_bound(osm_points):
    """The walk fails when a bound no longer covers its keys."""
    builder = ELSIModelBuilder(ELSIConfig(train_epochs=60), method="SP")
    index = LISAIndex(builder=builder, shard_size=1).build(osm_points)
    model = index.model.stage1
    assert model.error_width > 0
    model.err_l = model.err_u = 0
    with pytest.raises(AssertionError):
        assert_bounds_hold(index)
