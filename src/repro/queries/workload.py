"""Query workload generators (Section VII-G).

All generators *follow the data distribution*, as the paper's experiments
do: query anchors are sampled from the indexed points themselves, so dense
regions receive proportionally more queries.

Window sizes are expressed as a fraction of the data-space area (the
paper's 0.01 % default, swept from 0.0006 % to 0.16 % in Figure 13(b)).
"""

from __future__ import annotations

import numpy as np

from repro.queries.types import KNNQuery, PointQuery, WindowQuery
from repro.spatial.rect import Rect

__all__ = ["knn_workload", "point_workload", "window_workload"]


def point_workload(
    points: np.ndarray, n_queries: int | None = None, seed: int = 0
) -> list[PointQuery]:
    """Point queries over indexed points.

    The paper queries *every* point; pass ``n_queries`` to subsample for
    time-boxed runs (queries remain distribution-following either way).
    """
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        raise ValueError("need at least one point")
    if n_queries is None or n_queries >= len(pts):
        chosen = pts
    else:
        rng = np.random.default_rng(seed)
        chosen = pts[rng.choice(len(pts), size=n_queries, replace=False)]
    return [PointQuery(tuple(float(v) for v in p)) for p in chosen]


def window_workload(
    points: np.ndarray,
    n_queries: int = 1_000,
    area_fraction: float = 1e-4,
    seed: int = 0,
) -> list[WindowQuery]:
    """Square windows centred on data points, covering ``area_fraction``
    of the points' bounding box (0.01 % = 1e-4, the Figure 12 default)."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        raise ValueError("need at least one point")
    if not 0.0 < area_fraction <= 1.0:
        raise ValueError(f"area_fraction must lie in (0, 1], got {area_fraction}")
    bounds = Rect.bounding(pts)
    d = bounds.ndim
    side = (bounds.area() * area_fraction) ** (1.0 / d)
    rng = np.random.default_rng(seed)
    centers = pts[rng.integers(0, len(pts), size=n_queries)]
    return [WindowQuery(Rect.centered(c, side)) for c in centers]


def knn_workload(
    points: np.ndarray, n_queries: int = 1_000, k: int = 25, seed: int = 0
) -> list[KNNQuery]:
    """kNN queries at data points, k = 25 per Section VII-G3."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    centers = pts[rng.integers(0, len(pts), size=n_queries)]
    return [KNNQuery(tuple(float(v) for v in c), k=k) for c in centers]
