"""Shared query API for traditional spatial indices.

Mirrors :class:`repro.indices.base.LearnedSpatialIndex` (build + the three
query kinds) so experiments can sweep over learned and traditional indices
with one code path.  Traditional indices are exact; they also record a
simple build-time figure for Figure 8.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod

import numpy as np

from repro.queries.types import check_k
from repro.spatial.rect import Rect

__all__ = ["TraditionalIndex"]


class TraditionalIndex(ABC):
    """Build + point/window/kNN query API for the competitor indices."""

    name: str = "traditional"

    def __init__(self, block_size: int = 100) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size
        self.bounds: Rect | None = None
        self.n_points = 0
        self.build_seconds = 0.0

    @abstractmethod
    def build(self, points: np.ndarray) -> "TraditionalIndex":
        """Index ``points``; returns self for chaining."""

    @abstractmethod
    def point_query(self, point: np.ndarray) -> bool:
        """Whether ``point`` (exact coordinates) is indexed."""

    @abstractmethod
    def window_query(self, window: Rect) -> np.ndarray:
        """All indexed points inside ``window`` (exact)."""

    @abstractmethod
    def knn_query(self, point: np.ndarray, k: int) -> np.ndarray:
        """The k nearest indexed points to ``point`` (exact)."""

    # ------------------------------------------------------------------
    def _check_built(self) -> None:
        if self.bounds is None:
            raise RuntimeError(f"{self.name} index is not built yet")

    @staticmethod
    def _prepare_points(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("need a non-empty (n, d) array of points")
        if pts.shape[1] < 2:
            raise ValueError("spatial indices need d >= 2")
        return pts


class BestFirstKNN:
    """Best-first kNN over (MINDIST, node) entries — shared by the R-trees.

    Callers push the root, then repeatedly pop: nodes expand into children,
    leaves yield candidate points.  The search is exact because entries are
    popped in MINDIST order and points are returned only once their distance
    beats every remaining bound.
    """

    def __init__(self, point: np.ndarray, k: int) -> None:
        k = check_k(k)
        self.q = np.asarray(point, dtype=np.float64)
        self.k = k
        self._heap: list[tuple[float, int, object]] = []
        self._counter = 0
        self._results: list[tuple[float, np.ndarray]] = []

    def push(self, min_dist_sq: float, payload: object) -> None:
        heapq.heappush(self._heap, (min_dist_sq, self._counter, payload))
        self._counter += 1

    def push_points(self, points: np.ndarray) -> None:
        """Offer candidate points (kept if they can still make the top k)."""
        diff = points - self.q
        dist_sq = np.einsum("ij,ij->i", diff, diff)
        for i in np.argsort(dist_sq, kind="stable"):
            d = float(dist_sq[i])
            if len(self._results) < self.k:
                self._results.append((d, points[i]))
                self._results.sort(key=lambda t: t[0])
            elif d < self._results[-1][0]:
                self._results[-1] = (d, points[i])
                self._results.sort(key=lambda t: t[0])

    def pop(self) -> object | None:
        """Next node to expand, or None when the search is provably done."""
        while self._heap:
            bound, _c, payload = self._heap[0]
            if len(self._results) >= self.k and bound >= self._results[-1][0]:
                return None
            heapq.heappop(self._heap)
            return payload
        return None

    def results(self) -> np.ndarray:
        if not self._results:
            return np.empty((0, len(self.q)))
        return np.vstack([p for _d, p in self._results])
