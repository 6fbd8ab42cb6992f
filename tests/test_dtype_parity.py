"""The float64 edge cases, checked against brute force for all five
indices, in batch and one-at-a-time form.

Keys and nets are float64 end to end, so these are the cases where a key
or a boundary could still go wrong: duplicate rows (equal keys), probes
nudged off an indexed point by 1e-9 (which must miss on the exact
coordinate filter), far misses, a degenerate window sitting exactly on an
indexed point, an empty window, and RSMI's approximate windows (every row
true, recall at its floor).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import FloodIndex, LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.spatial.rect import Rect
from tests.brute import assert_knn, assert_windows, point_truth

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


@pytest.fixture(scope="module")
def parity_points(osm_points) -> np.ndarray:
    """OSM points plus exact duplicates (duplicate mapped keys)."""
    return np.vstack([osm_points, osm_points[::50]])


@pytest.fixture(scope="module")
def built(parity_points):
    """Every index type built over the same data."""
    config = ELSIConfig(train_epochs=60)
    return {
        name: cls(builder=ELSIModelBuilder(config, method="SP")).build(parity_points)
        for name, cls in INDEX_CLASSES.items()
    }


# ----------------------------------------------------------------------
# Point queries: all five index types
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(INDEX_CLASSES))
def test_point_query_parity(built, parity_points, name):
    rng = np.random.default_rng(7)
    batch = np.vstack(
        [
            parity_points[:150],
            parity_points[-10:],  # duplicated rows (duplicate keys)
            # Indexed coordinates nudged by 1e-9: keys at or next to a
            # stored key, which must miss on the exact coordinate filter.
            parity_points[:25] + 1e-9,
            rng.random((50, 2)) + 1.5,  # far misses
        ]
    )
    truth = point_truth(parity_points, batch)
    assert truth[:160].all()  # every indexed point (incl. duplicates)
    assert not truth[160:].any()  # every non-indexed probe
    index = built[name]
    np.testing.assert_array_equal(index.point_queries(batch), truth)
    np.testing.assert_array_equal(
        [index.point_query(p) for p in batch[::7]], truth[::7]
    )


# ----------------------------------------------------------------------
# Window queries: exact indices match brute force
# ----------------------------------------------------------------------
def _windows(points: np.ndarray) -> list[Rect]:
    rng = np.random.default_rng(3)
    wins = []
    for _ in range(8):
        lo = rng.random(2) * 0.8
        wins.append(Rect(tuple(lo), tuple(lo + rng.random(2) * 0.2 + 0.02)))
    # Empty window and a degenerate window whose closed boundaries sit
    # exactly on an indexed point's coordinates: its key is both scan
    # boundaries, and the row must still come back.
    wins.append(Rect((2.0, 2.0), (3.0, 3.0)))
    p = points[17]
    wins.append(Rect((p[0], p[1]), (p[0], p[1])))
    return wins


@pytest.mark.parametrize("name", EXACT)
def test_window_query_parity(built, parity_points, name):
    """Per-query spelling, one window at a time."""
    wins = _windows(parity_points)
    index = built[name]
    assert_windows(name, parity_points, wins, [index.window_query(w) for w in wins])


@pytest.mark.parametrize("name", EXACT)
def test_window_batch_parity(built, parity_points, name):
    wins = _windows(parity_points)
    assert_windows(name, parity_points, wins, built[name].window_queries(wins))


def test_rsmi_window_subset_and_recall(built, parity_points):
    """RSMI windows are approximate: every returned point is a true match,
    and recall holds its floor."""
    wins = _windows(parity_points)[:9]
    index = built["RSMI"]
    assert_windows("RSMI", parity_points, wins, index.window_queries(wins))
    assert_windows("RSMI", parity_points, wins, [index.window_query(w) for w in wins])


# ----------------------------------------------------------------------
# kNN: exact indices return the true neighbour sets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", EXACT)
def test_knn_parity(built, parity_points, name):
    rng = np.random.default_rng(11)
    queries = rng.random((6, 2))
    k = 10
    index = built[name]
    # Compared by sorted distance vector: equidistant ties may legitimately
    # resolve to different (equally correct) points.
    assert_knn(name, parity_points, queries, k, index.knn_queries(queries, k))
    assert_knn(
        name, parity_points, queries[:2], k,
        [index.knn_query(q, k) for q in queries[:2]],
    )
