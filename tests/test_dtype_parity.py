"""Float32 end-to-end parity tests (models + mapped keys).

``ELSIConfig.dtype`` / ``REPRO_DTYPE`` now casts the *mapped key columns*
as well as the model networks.  The correctness argument is quantisation
symmetry: the round-to-nearest float64→float32 cast is monotone and is
applied identically at build time (stored keys) and probe time (query
keys), so equal coordinates always map to bit-equal keys, error bounds
re-measured over the cast keys keep predict-and-scan exact, and exact
float64 coordinate/rectangle/distance filters remove any extra candidates
the coarser quantisation lets through.  These tests pin that argument:
query results under float32 must match float64 (and brute force) exactly
for the exact indices, and snapshots must round-trip the reduced dtype.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import FloodIndex, LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.ml.ffn import FFN
from repro.queries import brute_force_window
from repro.spatial.rect import Rect
from repro.storage.persist import load_index, save_index
from tests.brute import assert_knn, assert_windows, canon as _canon, point_truth

INDEX_CLASSES = {
    "ZM": ZMIndex,
    "ML": MLIndex,
    "RSMI": RSMIIndex,
    "LISA": LISAIndex,
    "Flood": FloodIndex,
}
#: Indices whose window (and hence kNN) results are exact, plus LISA, which
#: misses nothing on this fixture (recall floor 1.0 in ``tests/brute.py``);
#: RSMI's are approximate by design (non-monotone per-node models).
EXACT = ("ZM", "ML", "LISA", "Flood")


def _build(cls, points: np.ndarray, dtype: str):
    """Build one index at an explicit dtype, overriding any ambient
    ``REPRO_DTYPE`` (the CI float32 job exports it globally)."""
    saved = os.environ.get("REPRO_DTYPE")
    os.environ["REPRO_DTYPE"] = dtype
    try:
        config = ELSIConfig(train_epochs=60, dtype=dtype)
        return cls(builder=ELSIModelBuilder(config, method="SP")).build(points)
    finally:
        if saved is None:
            os.environ.pop("REPRO_DTYPE", None)
        else:
            os.environ["REPRO_DTYPE"] = saved


@pytest.fixture(scope="module")
def parity_points(osm_points) -> np.ndarray:
    """OSM points plus exact duplicates (duplicate mapped keys)."""
    return np.vstack([osm_points, osm_points[::50]])


@pytest.fixture(scope="module")
def pairs(parity_points):
    """Every index type built at float64 and float32 over the same data."""
    return {
        name: {
            "float64": _build(cls, parity_points, "float64"),
            "float32": _build(cls, parity_points, "float32"),
        }
        for name, cls in INDEX_CLASSES.items()
    }


# ----------------------------------------------------------------------
# Point queries: bit-exact f32/f64 parity for all five index types
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(INDEX_CLASSES))
def test_point_query_parity(pairs, parity_points, name):
    rng = np.random.default_rng(7)
    batch = np.vstack(
        [
            parity_points[:150],
            parity_points[-10:],  # duplicated rows (duplicate keys)
            # Boundary-quantisation probes: nudge indexed coordinates by
            # less than one float32 ulp — they round to the same cast key
            # but must still miss on the exact float64 coordinate filter.
            parity_points[:25] + 1e-9,
            rng.random((50, 2)) + 1.5,  # far misses
        ]
    )
    truth = point_truth(parity_points, batch)
    assert truth[:160].all()  # every indexed point (incl. duplicates)
    assert not truth[160:].any()  # every non-indexed probe
    for dtype in ("float32", "float64"):
        index = pairs[name][dtype]
        np.testing.assert_array_equal(index.point_queries(batch), truth)
        np.testing.assert_array_equal(
            [index.point_query(p) for p in batch[::7]], truth[::7]
        )


# ----------------------------------------------------------------------
# Window queries: exact indices match brute force under both dtypes
# ----------------------------------------------------------------------
def _windows(points: np.ndarray) -> list[Rect]:
    rng = np.random.default_rng(3)
    wins = []
    for _ in range(8):
        lo = rng.random(2) * 0.8
        wins.append(Rect(tuple(lo), tuple(lo + rng.random(2) * 0.2 + 0.02)))
    # Empty window and a degenerate window whose closed boundaries sit
    # exactly on an indexed point's (float64) coordinates — the cast-probe
    # superset must not lose it to float32 rounding.
    wins.append(Rect((2.0, 2.0), (3.0, 3.0)))
    p = points[17]
    wins.append(Rect((p[0], p[1]), (p[0], p[1])))
    return wins


@pytest.mark.parametrize("name", EXACT)
def test_window_query_parity(pairs, parity_points, name):
    """Per-query spelling, one window at a time, under both dtypes."""
    wins = _windows(parity_points)
    for dtype in ("float32", "float64"):
        index = pairs[name][dtype]
        assert_windows(
            name, parity_points, wins, [index.window_query(w) for w in wins]
        )


@pytest.mark.parametrize("name", EXACT)
def test_window_batch_parity(pairs, parity_points, name):
    wins = _windows(parity_points)
    for dtype in ("float32", "float64"):
        assert_windows(
            name, parity_points, wins, pairs[name][dtype].window_queries(wins)
        )


def test_rsmi_window_subset_and_recall(pairs, parity_points):
    """RSMI windows stay approximate under float32: every returned point
    is a true match, and recall holds the floor it shows under float64."""
    wins = _windows(parity_points)[:9]
    for dtype in ("float32", "float64"):
        index = pairs["RSMI"][dtype]
        assert_windows("RSMI", parity_points, wins, index.window_queries(wins))
        assert_windows(
            "RSMI", parity_points, wins, [index.window_query(w) for w in wins]
        )


# ----------------------------------------------------------------------
# kNN: exact indices return the true neighbour sets under float32
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", EXACT)
def test_knn_parity(pairs, parity_points, name):
    rng = np.random.default_rng(11)
    queries = rng.random((6, 2))
    k = 10
    for dtype in ("float32", "float64"):
        index = pairs[name][dtype]
        # Compared by sorted distance vector: equidistant ties may
        # legitimately resolve to different (equally correct) points.
        assert_knn(name, parity_points, queries, k, index.knn_queries(queries, k))
        assert_knn(
            name, parity_points, queries[:2], k,
            [index.knn_query(q, k) for q in queries[:2]],
        )


# ----------------------------------------------------------------------
# Memory: float32 halves key and model storage
# ----------------------------------------------------------------------
def test_float32_halves_key_memory(pairs):
    for name in ("ZM", "ML", "LISA"):
        k32 = pairs[name]["float32"].store.keys
        k64 = pairs[name]["float64"].store.keys
        assert k32.dtype == np.float32 and k64.dtype == np.float64
        assert k32.nbytes * 2 == k64.nbytes


def test_float32_casts_model_parameters(pairs):
    model32 = pairs["ZM"]["float32"].model.stage1
    assert isinstance(model32.net, FFN)
    assert all(w.dtype == np.float32 for w in model32.net.weights)
    model64 = pairs["ZM"]["float64"].model.stage1
    assert all(w.dtype == np.float64 for w in model64.net.weights)


def test_flood_column_keys_follow_dtype(pairs):
    stores32 = [run.store for run in pairs["Flood"]["float32"].runs()]
    assert stores32 and all(s.keys.dtype == np.float32 for s in stores32)


def test_rsmi_leaf_keys_and_nets_follow_dtype(pairs):
    index = pairs["RSMI"]["float32"]
    for node in index._nodes():
        if isinstance(node.model.net, FFN):
            assert all(w.dtype == np.float32 for w in node.model.net.weights)
    leaves = list(index.runs())
    assert leaves and all(run.store.keys.dtype == np.float32 for run in leaves)


# ----------------------------------------------------------------------
# Persistence: float32 snapshots round-trip dtype and bounds
# ----------------------------------------------------------------------
def test_rsmi_float32_snapshot_round_trip(pairs, parity_points, tmp_path):
    index = pairs["RSMI"]["float32"]
    path = tmp_path / "rsmi32.npz"
    save_index(index, path)
    # Load under an ambient float64 REPRO_DTYPE: the snapshot's own key
    # quantisation must win over the loading process's default.
    saved = os.environ.get("REPRO_DTYPE")
    os.environ["REPRO_DTYPE"] = "float64"
    try:
        loaded = load_index(path)
    finally:
        if saved is None:
            os.environ.pop("REPRO_DTYPE", None)
        else:
            os.environ["REPRO_DTYPE"] = saved
    assert loaded.key_dtype == np.dtype(np.float32)
    orig_nodes, loaded_nodes = list(index._nodes()), list(loaded._nodes())
    assert len(orig_nodes) == len(loaded_nodes)
    for a, b in zip(orig_nodes, loaded_nodes):
        assert (a.model.err_l, a.model.err_u) == (b.model.err_l, b.model.err_u)
        if isinstance(b.model.net, FFN):
            assert all(w.dtype == np.float32 for w in b.model.net.weights)
        if a.is_leaf:
            assert b.run.store.keys.dtype == np.float32
    assert loaded.point_queries(parity_points[::40]).all()


@pytest.mark.parametrize("name", ["ZM", "ML", "LISA", "Flood"])
def test_store_index_float32_snapshot_round_trip(
    pairs, parity_points, name, tmp_path
):
    index = pairs[name]["float32"]
    path = tmp_path / f"{name.lower()}32.npz"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.key_dtype == np.dtype(np.float32)
    assert loaded.point_queries(parity_points[::40]).all()
    win = _windows(parity_points)[0]
    truth = _canon(brute_force_window(parity_points, win))
    np.testing.assert_array_equal(_canon(loaded.window_query(win)), truth)
