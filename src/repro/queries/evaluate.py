"""Brute-force ground truth and recall measurement (Figures 12(b), 14(b), 16(b)).

Recall is "the ratio of ground truth points in the returned query results";
for kNN the paper's equivalent is matching the true k-th distance, so a
returned point counts as correct when its distance does not exceed the true
k-th nearest distance (ties included).
"""

from __future__ import annotations

import numpy as np

from repro.queries.types import check_k
from repro.spatial.rect import Rect

__all__ = [
    "brute_force_knn",
    "brute_force_window",
    "knn_recall",
    "window_recall",
]


def brute_force_window(points: np.ndarray, window: Rect) -> np.ndarray:
    """All points inside ``window`` by linear scan."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        return pts
    return pts[window.contains_points(pts)]


def brute_force_knn(points: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """The true k nearest points by linear scan."""
    k = check_k(k)
    pts = np.asarray(points, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    if len(pts) == 0:
        return pts
    diff = pts - q
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    order = np.argsort(dist, kind="stable")
    return pts[order[: min(k, len(order))]]


def window_recall(returned: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of ground-truth points present in the returned set.

    An empty ground truth counts as perfect recall (nothing to miss).
    Duplicate coordinates are matched with multiplicity.
    """
    if len(truth) == 0:
        return 1.0
    returned_keys: dict[tuple, int] = {}
    for p in np.asarray(returned, dtype=np.float64):
        key = tuple(float(v) for v in p)
        returned_keys[key] = returned_keys.get(key, 0) + 1
    found = 0
    for p in np.asarray(truth, dtype=np.float64):
        key = tuple(float(v) for v in p)
        if returned_keys.get(key, 0) > 0:
            returned_keys[key] -= 1
            found += 1
    return found / len(truth)


def knn_recall(
    returned: np.ndarray, points: np.ndarray, query: np.ndarray, k: int
) -> float:
    """Fraction of returned neighbours within the true k-th distance."""
    k = check_k(k)
    pts = np.asarray(points, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    if len(pts) == 0:
        return 1.0
    diff = pts - q
    dist = np.sort(np.sqrt(np.einsum("ij,ij->i", diff, diff)), kind="stable")
    kth = dist[min(k, len(dist)) - 1]
    if len(returned) == 0:
        return 0.0
    rdiff = np.asarray(returned, dtype=np.float64) - q
    rdist = np.sqrt(np.einsum("ij,ij->i", rdiff, rdiff))
    correct = int((rdist <= kth + 1e-12).sum())
    return correct / min(k, len(dist))
