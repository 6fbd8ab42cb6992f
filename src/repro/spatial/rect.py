"""Axis-aligned rectangles (minimum bounding rectangles, MBRs).

Used as query windows, R-tree node boundaries, grid cells, and quadtree
partitions.  A :class:`Rect` is immutable; all geometry works in arbitrary
dimensionality ``d >= 1`` even though the paper's experiments use d = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Rect"]


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned box ``[lo[i], hi[i]]`` per dimension.

    ``lo`` and ``hi`` are tuples so the rectangle is hashable; helper
    constructors accept arrays.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError(f"lo has {len(self.lo)} dims but hi has {len(self.hi)}")
        if len(self.lo) == 0:
            raise ValueError("a rectangle needs at least one dimension")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"lo must be <= hi per dimension: {self.lo} vs {self.hi}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_arrays(lo: np.ndarray, hi: np.ndarray) -> "Rect":
        """Build from two coordinate arrays."""
        return Rect(tuple(float(v) for v in lo), tuple(float(v) for v in hi))

    @staticmethod
    def unit(d: int = 2) -> "Rect":
        """The unit hypercube [0, 1]^d (the paper's data space)."""
        return Rect((0.0,) * d, (1.0,) * d)

    @staticmethod
    def bounding(points: np.ndarray) -> "Rect":
        """Tightest rectangle containing every row of ``points``."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("need a non-empty (n, d) array of points")
        return Rect.from_arrays(pts.min(axis=0), pts.max(axis=0))

    @staticmethod
    def centered(center: np.ndarray, side: float) -> "Rect":
        """Hypercube of side length ``side`` centred at ``center``."""
        c = np.asarray(center, dtype=np.float64)
        half = side / 2.0
        return Rect.from_arrays(c - half, c + half)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.lo)

    # cached_property works on a frozen dataclass because it writes to the
    # instance __dict__ directly; geometry getters are on every hot path.
    @cached_property
    def lo_array(self) -> np.ndarray:
        return np.asarray(self.lo, dtype=np.float64)

    @cached_property
    def hi_array(self) -> np.ndarray:
        return np.asarray(self.hi, dtype=np.float64)

    @cached_property
    def center(self) -> np.ndarray:
        return (self.lo_array + self.hi_array) / 2.0

    @cached_property
    def corners(self) -> np.ndarray:
        """``(2, d)``: the low corner's row, then the high corner's."""
        return np.stack((self.lo_array, self.hi_array))

    @property
    def extents(self) -> np.ndarray:
        return self.hi_array - self.lo_array

    @cached_property
    def max_extent(self) -> float:
        """The longest side."""
        return float(self.extents.max())

    @cached_property
    def unit_scale(self) -> np.ndarray:
        """The extents, 1 on a degenerate axis: maps the box onto the unit cube."""
        return np.where(self.extents == 0.0, 1.0, self.extents)

    def area(self) -> float:
        """Volume of the box (area when d = 2)."""
        return float(np.prod(self.extents))

    def margin(self) -> float:
        """Sum of edge lengths (the R*-tree margin criterion)."""
        return float(self.extents.sum())

    def contains_point(self, point: np.ndarray) -> bool:
        """Whether ``point`` lies in the closed box."""
        p = np.asarray(point, dtype=np.float64)
        return bool(np.all(p >= self.lo_array) and np.all(p <= self.hi_array))

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorised membership mask for an (n, d) array."""
        pts = np.asarray(points, dtype=np.float64)
        return np.all((pts >= self.lo_array) & (pts <= self.hi_array), axis=1)

    def intersects(self, other: "Rect") -> bool:
        """Whether the two closed boxes overlap (touching counts)."""
        return bool(
            np.all(self.lo_array <= other.hi_array)
            and np.all(other.lo_array <= self.hi_array)
        )

    def intersection_area(self, other: "Rect") -> float:
        """Volume of the overlap, 0 when disjoint."""
        lo = np.maximum(self.lo_array, other.lo_array)
        hi = np.minimum(self.hi_array, other.hi_array)
        sides = hi - lo
        if np.any(sides < 0):
            return 0.0
        return float(np.prod(sides))

    def union(self, other: "Rect") -> "Rect":
        """Smallest box containing both."""
        return Rect.from_arrays(
            np.minimum(self.lo_array, other.lo_array),
            np.maximum(self.hi_array, other.hi_array),
        )

    def enlargement(self, other: "Rect") -> float:
        """Volume increase needed to absorb ``other`` (R-tree insertion metric)."""
        return self.union(other).area() - self.area()

    def min_distance_sq(self, point: np.ndarray) -> float:
        """Squared distance from ``point`` to the box (0 if inside).

        This is the MINDIST bound used for best-first kNN search over
        R-tree nodes and grid cells.
        """
        p = np.asarray(point, dtype=np.float64)
        delta = np.maximum(self.lo_array - p, 0.0) + np.maximum(p - self.hi_array, 0.0)
        return float(np.dot(delta, delta))

    def split_midpoint(self) -> list["Rect"]:
        """The 2^d equal sub-boxes obtained by halving every dimension.

        This is the partitioning step of Algorithm 2 (the RS method) and of
        the quadtree substrate.  Children are ordered by the binary code of
        which halves they take (dimension 0 is the lowest bit).
        """
        mid = self.center
        children = []
        for code in range(2**self.ndim):
            lo = self.lo_array.copy()
            hi = self.hi_array.copy()
            for dim in range(self.ndim):
                if code >> dim & 1:
                    lo[dim] = mid[dim]
                else:
                    hi[dim] = mid[dim]
            children.append(Rect.from_arrays(lo, hi))
        return children
