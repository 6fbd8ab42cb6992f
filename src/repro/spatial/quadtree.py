"""A 2^d-ary space-partitioning tree (quadtree when d = 2, octree when d = 3).

This is the partitioning substrate of the RS build method (Algorithm 2):
each cell splits into ``2**d`` equal children at its midpoint until no cell
holds more than ``max_points`` points.  Leaves keep the *indices* of their
points into the original array so callers can relate partitions back to
mapped keys, which is exactly what RS's median-in-mapped-space selection
needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.spatial.rect import Rect

__all__ = ["MAX_DEPTH", "QuadTree", "QuadTreeNode"]

#: Hard recursion cap, so duplicate points cannot cause unbounded
#: splitting; a leaf at this depth may exceed ``max_points``.
MAX_DEPTH = 24


@dataclass
class QuadTreeNode:
    """One cell of the partition; internal nodes have ``children``."""

    bounds: Rect
    depth: int
    point_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64), init=False
    )
    children: list["QuadTreeNode"] = field(default_factory=list, init=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def size(self) -> int:
        """Number of points in this cell (0 for internal nodes)."""
        return len(self.point_indices)


class QuadTree:
    """Recursive midpoint partitioning of ``points`` within their bounding
    box.

    Parameters
    ----------
    points:
        (n, d) array of coordinates.
    max_points:
        The β of Algorithm 2 — leaves hold at most this many points (but
        see :data:`MAX_DEPTH`).
    """

    def __init__(self, points: np.ndarray, max_points: int) -> None:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"expected an (n, d) array, got shape {pts.shape}")
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        self.points = pts
        self.max_points = max_points
        if len(pts) == 0:
            bounds = Rect.unit(pts.shape[1] if pts.shape[1] else 2)
        else:
            bounds = Rect.bounding(pts)
        self.bounds = bounds
        self.root = self._build(np.arange(len(pts), dtype=np.int64), bounds, depth=0)

    def _build(self, indices: np.ndarray, bounds: Rect, depth: int) -> QuadTreeNode:
        node = QuadTreeNode(bounds=bounds, depth=depth)
        if len(indices) <= self.max_points or depth >= MAX_DEPTH:
            node.point_indices = indices
            return node
        mid = bounds.center
        pts = self.points[indices]
        # Child code: bit `dim` set means the upper half along `dim`,
        # matching Rect.split_midpoint ordering.
        codes = np.zeros(len(indices), dtype=np.int64)
        for dim in range(bounds.ndim):
            codes |= (pts[:, dim] >= mid[dim]).astype(np.int64) << dim
        child_bounds = bounds.split_midpoint()
        for code, cb in enumerate(child_bounds):
            node.children.append(self._build(indices[codes == code], cb, depth + 1))
        return node

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def leaves(self) -> list[QuadTreeNode]:
        """All non-empty leaf cells, depth-first."""
        out: list[QuadTreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if node.size > 0:
                    out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out
