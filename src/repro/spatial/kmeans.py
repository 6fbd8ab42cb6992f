"""Lloyd's k-means with k-means++ seeding.

Used by the CL build method (cluster centroids as the reduced training set,
Section V-A2) and by the iDistance mapping of ML-Index (reference points).
The paper notes a straightforward implementation costs ``O(C * n * d * i)``
for ``i`` iterations; this one is that algorithm, vectorised per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KMeansResult", "kmeans"]

#: Lloyd's iterations stop once no centroid moves farther than this.
TOLERANCE = 1e-7


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]), dtype=points.dtype)
    centroids[0] = points[rng.integers(n)]
    closest_sq = np.full(n, np.inf, dtype=points.dtype)
    for i in range(1, k):
        diff = points - centroids[i - 1]
        dist_sq = np.einsum("ij,ij->i", diff, diff)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
        total = closest_sq.sum()
        if total <= 0.0:
            # All points coincide with chosen centroids; duplicate one.
            centroids[i:] = points[rng.integers(n, size=k - i)]
            return centroids
        # rng.choice needs float64 probabilities summing to one exactly.
        probs = closest_sq.astype(np.float64) / float(total)
        probs /= probs.sum()
        centroids[i] = points[rng.choice(n, p=probs)]
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    max_iterations: int = 25,
    seed: int = 0,
) -> KMeansResult:
    """Cluster ``points`` into ``k`` clusters; returns centroids and labels.

    ``max_iterations`` defaults low because CL only needs centroids that
    summarise density, not a converged optimum; the paper's complexity
    analysis treats the iteration count ``i`` as a constant factor.

    Floating inputs keep their dtype (centroids, distances and inertia
    come out in it); other dtypes upcast to float64.
    """
    pts = np.asarray(points)
    if not np.issubdtype(pts.dtype, np.floating):
        pts = pts.astype(np.float64)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("need a non-empty (n, d) array of points")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(pts):
        raise ValueError(f"k={k} exceeds the number of points {len(pts)}")

    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(pts, k, rng)
    labels = np.zeros(len(pts), dtype=np.int64)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # Assignment step: nearest centroid by squared Euclidean distance,
        # computed blockwise to bound memory at large n * k.
        labels = _assign(pts, centroids)
        new_centroids = centroids.copy()
        for c in range(k):
            members = pts[labels == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its
                # centroid, the usual k-means repair.
                diffs = pts - centroids[labels]
                dist_sq = np.einsum("ij,ij->i", diffs, diffs)
                new_centroids[c] = pts[int(np.argmax(dist_sq))]
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift <= TOLERANCE:
            break

    labels = _assign(pts, centroids)
    diffs = pts - centroids[labels]
    inertia = float(np.einsum("ij,ij->i", diffs, diffs).sum())
    return KMeansResult(
        centroids=centroids, labels=labels, inertia=inertia, iterations=iterations
    )


def _assign(points: np.ndarray, centroids: np.ndarray, block: int = 8192) -> np.ndarray:
    """Nearest-centroid labels, processed in blocks of rows."""
    labels = np.empty(len(points), dtype=np.int64)
    c_norm = np.einsum("ij,ij->i", centroids, centroids)
    for start in range(0, len(points), block):
        chunk = points[start : start + block]
        # ||p - c||^2 = ||p||^2 - 2 p.c + ||c||^2; ||p||^2 constant per row.
        scores = chunk @ centroids.T * -2.0 + c_norm
        labels[start : start + block] = np.argmin(scores, axis=1)
    return labels
