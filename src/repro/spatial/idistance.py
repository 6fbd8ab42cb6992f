"""The iDistance one-dimensional mapping (Jagadish et al., TODS 2005).

ML-Index maps each point to ``key = j * c + dist(p, o_j)`` where ``o_j`` is
the nearest of ``m`` reference points and ``c`` is a stretch constant larger
than any within-partition distance.  Sorting by this key groups points by
reference partition and, within a partition, by distance from the
reference — which is what makes range/kNN search reducible to
one-dimensional interval scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spatial.kmeans import kmeans

__all__ = ["IDistanceMapping"]


@dataclass(frozen=True)
class IDistanceMapping:
    """A fitted iDistance mapping: reference points plus stretch constant.

    Build with :meth:`fit`; apply with :meth:`keys`.
    """

    references: np.ndarray
    stretch: float

    @staticmethod
    def fit(points: np.ndarray, n_references: int = 16, seed: int = 0) -> "IDistanceMapping":
        """Choose reference points as k-means centroids of ``points``.

        The stretch constant is twice the diameter of ``points``' bounding
        box, so the partitions of ``points`` cannot overlap in key space.
        That holds for a later insertion only while the new point is closer
        than the stretch to its nearest reference; one farther away would
        get a key inside the next partition's range, and
        :class:`~repro.indices.ml_index.MLIndex` refuses to insert it.

        Floating inputs keep their dtype (references and distances come
        out in it); other dtypes upcast to float64.
        """
        pts = np.asarray(points)
        if not np.issubdtype(pts.dtype, np.floating):
            pts = pts.astype(np.float64)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("need a non-empty (n, d) array of points")
        k = min(n_references, len(pts))
        result = kmeans(pts, k, seed=seed)
        span = pts.max(axis=0).astype(np.float64) - pts.min(axis=0).astype(np.float64)
        diameter = float(np.sqrt((span**2).sum()))
        stretch = max(diameter * 2.0, 1e-9)
        return IDistanceMapping(references=result.centroids, stretch=stretch)

    @property
    def n_references(self) -> int:
        return len(self.references)

    def nearest_reference(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(partition id, distance to it) per point."""
        pts = np.asarray(points)
        if not np.issubdtype(pts.dtype, np.floating):
            pts = pts.astype(np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        # Blockwise distance computation to bound memory.
        ids = np.empty(len(pts), dtype=np.int64)
        dists = np.empty(len(pts), dtype=np.result_type(pts, self.references))
        r_norm = np.einsum("ij,ij->i", self.references, self.references)
        for start in range(0, len(pts), 8192):
            chunk = pts[start : start + 8192]
            scores = chunk @ self.references.T * -2.0 + r_norm
            best = np.argmin(scores, axis=1)
            ids[start : start + 8192] = best
            diff = chunk - self.references[best]
            dists[start : start + 8192] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        return ids, dists

    def keys(self, points: np.ndarray) -> np.ndarray:
        """The iDistance key ``j * stretch + dist(p, o_j)`` per point."""
        ids, dists = self.nearest_reference(points)
        return ids * self.stretch + dists

    def partition_interval(self, partition: int) -> tuple[float, float]:
        """Key interval [j*c, (j+1)*c) owned by partition ``partition``."""
        if not 0 <= partition < self.n_references:
            raise ValueError(f"partition {partition} out of range")
        return partition * self.stretch, (partition + 1) * self.stretch

    def annulus_keys(
        self, center: np.ndarray, radius: float
    ) -> list[tuple[float, float]]:
        """Key ranges that may contain points within ``radius`` of ``center``.

        For each reference ``o_j`` at distance ``r_j`` from the query centre,
        points of partition j within the query ball have key in
        ``[j*c + max(0, r_j - radius), j*c + r_j + radius]`` — the classic
        iDistance annulus filter used by window and kNN search.
        """
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        c = np.asarray(center, dtype=np.float64)
        diff = self.references - c
        ref_dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        ranges: list[tuple[float, float]] = []
        for j, r_j in enumerate(ref_dist):
            lo = j * self.stretch + max(0.0, r_j - radius)
            hi = j * self.stretch + r_j + radius
            ranges.append((lo, hi))
        return ranges
