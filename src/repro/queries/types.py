"""Query value types shared by the workload generators and the harness."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.spatial.rect import Rect

__all__ = ["KNNQuery", "PointQuery", "WindowQuery", "check_k"]


def check_k(k) -> int:
    """``k`` of a kNN query as an ``int``: an integer >= 1 (a Python or
    NumPy integer), else ``ValueError``.  A float ``k``, even a whole one,
    is refused: it would only fail later, as a slice bound."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer >= 1, got {k!r}") from None
    if k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    return k


@dataclass(frozen=True)
class PointQuery:
    """An exact-coordinates membership query."""

    point: tuple[float, ...]

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.point, dtype=np.float64)

    def run(self, index) -> bool:
        return index.point_query(self.array)


@dataclass(frozen=True)
class WindowQuery:
    """A rectangular range query."""

    window: Rect

    def run(self, index) -> np.ndarray:
        return index.window_query(self.window)


@dataclass(frozen=True)
class KNNQuery:
    """A k-nearest-neighbours query."""

    point: tuple[float, ...]
    k: int

    def __post_init__(self) -> None:
        check_k(self.k)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.point, dtype=np.float64)

    def run(self, index) -> np.ndarray:
        return index.knn_query(self.array, self.k)
