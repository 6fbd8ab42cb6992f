"""Queries past the edges of float64 space, against a linear scan.

Windows with infinite corners, corners at ±1e15 and half-unbounded slabs,
kNN queries whose squared distances overflow, and NaN / infinite point
probes, for all four indices.  A grid-mapped index (ZM, LISA, RSMI)
must answer them without a ``RuntimeWarning``: a coordinate the cell grid
cannot hold is clamped before any integer cast, not wrapped through one.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.data import load_dataset
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.spatial.rect import Rect
from tests.brute import assert_knn, assert_windows

INF = np.inf
WINDOWS = [
    ((-INF, -INF), (INF, INF)),
    ((-1e15, -1e15), (1e15, 1e15)),
    ((0.2, -INF), (0.6, INF)),
    ((-INF, 0.3), (INF, 0.35)),
    ((-INF, -INF), (0.4, 0.5)),
    ((0.5, 0.5), (INF, INF)),
    ((-1e300, 0.2), (1e300, 0.6)),
    ((0.3, 0.2), (1e200, 0.6)),  # a centre whose squared distances overflow
    ((-1e200, 0.2), (0.5, 0.6)),
]
FAR = [[1e300, 0.5], [-1e300, -1e300], [0.5, 1e300], [1e160, 0.5], [1e15, 0.5]]


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    return load_dataset("OSM1", 3_000, seed=0)


@pytest.fixture(scope="module", params=[ZMIndex, MLIndex, RSMIIndex, LISAIndex])
def index(request, data):
    builder = ELSIModelBuilder(ELSIConfig(train_epochs=60), method="SP")
    return request.param(builder=builder).build(data)


@contextmanager
def _strict(index):
    """Warnings as errors for a grid-mapped index; for ML-Index only an
    invalid integer cast is one: its networks see the infinite keys."""
    with warnings.catch_warnings():
        if index.name == "ML":
            warnings.simplefilter("ignore")
            warnings.filterwarnings("error", "invalid value encountered in cast")
        else:
            warnings.simplefilter("error")
        yield


def test_unbounded_windows_equal_brute_force(index, data):
    windows = [Rect(lo, hi) for lo, hi in WINDOWS]
    with _strict(index):
        results = index.window_queries(windows)
        rows, counts = index.window_rows(
            np.array([w[0] for w in WINDOWS]), np.array([w[1] for w in WINDOWS])
        )
    assert_windows(index.name, data, windows, results)
    assert counts.tolist() == [len(r) for r in results]
    np.testing.assert_array_equal(rows, np.concatenate(results))


def test_far_knn_equals_brute_force(index, data):
    queries = np.array(FAR)
    with _strict(index):
        results = index.knn_queries(queries, 5)
        alone = [index.knn_query(q, 5) for q in queries]
    assert_knn(index.name, data, queries, 5, results)
    assert_knn(index.name, data, queries, 5, alone)


def test_non_finite_point_probes_miss(index, data):
    probes = np.array([[np.nan, 0.5], [INF, 0.5], [-INF, 0.5], [1e300, 0.5], [0.5, -INF]])
    with _strict(index):
        found = index.point_queries(np.vstack([probes, data[:3]]))
        alone = [index.point_query(p) for p in probes]
    assert found.tolist() == [False] * len(probes) + [True] * 3
    assert alone == [False] * len(probes)
