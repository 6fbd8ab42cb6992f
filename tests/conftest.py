"""Shared fixtures: small data sets and fast-training builders.

Tests run at reduced scale (n ~ 1-3k, ~100 epochs); correctness properties
(predict-and-scan guarantees, exactness, invariants) are scale-free.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.data import load_dataset
from repro.indices.base import OriginalBuilder
from repro.ml.trainer import TrainConfig


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No armed fault may leak between tests (the registry is process-global)."""
    from repro.faults.registry import get_fault_registry

    yield
    get_fault_registry().reset()


@pytest.fixture()
def fast_switching():
    """Thread switches every 10 µs, so races show up in a short test."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def tracer():
    """The process-wide tracer, enabled for the test and reset afterwards."""
    from repro.obs.trace import get_tracer

    t = get_tracer()
    t.enable()
    t.reset()
    yield t
    t.disable()
    t.reset()


@pytest.fixture(scope="session")
def osm_points() -> np.ndarray:
    """A 2 000-point OSM1-like data set shared across tests."""
    return load_dataset("OSM1", 2_000)


@pytest.fixture(scope="session")
def skewed_points() -> np.ndarray:
    return load_dataset("Skewed", 2_000)


@pytest.fixture(scope="session")
def uniform_points() -> np.ndarray:
    return load_dataset("Uniform", 2_000)


@pytest.fixture()
def fast_config() -> ELSIConfig:
    """An ELSI configuration tuned for test speed."""
    return ELSIConfig(train_epochs=100, rl_steps=50, hidden_size=16)


@pytest.fixture()
def fast_train_config() -> TrainConfig:
    return TrainConfig(epochs=100)


@pytest.fixture()
def og_builder(fast_train_config) -> OriginalBuilder:
    """The no-ELSI (full-data) model builder with fast training."""
    return OriginalBuilder(train_config=fast_train_config)


@pytest.fixture()
def sp_builder(fast_config) -> ELSIModelBuilder:
    """An ELSI builder fixed to the SP method (fast, always applicable)."""
    return ELSIModelBuilder(fast_config, method="SP")


@pytest.fixture(scope="session")
def tied_points(osm_points):
    """The OSM1 fixture plus 200 duplicated rows and a power-of-two lattice
    patch: exact distance ties, between duplicates and between distinct
    points."""
    axis = 0.25 + np.arange(8) / 64.0
    patch = np.array([(x, y) for x in axis for y in axis])
    return np.vstack([osm_points, osm_points[:200], patch])


@pytest.fixture(scope="session")
def knn_probes(tied_points):
    rng = np.random.default_rng(11)
    return np.vstack(
        [
            tied_points[rng.integers(0, len(tied_points), 250)],
            tied_points[-64::5],  # lattice points: four equidistant neighbours
            rng.random((100, 2)),
            rng.random((21, 2)) * 3.0 - 1.0,  # around and outside the bounds
        ]
    )
