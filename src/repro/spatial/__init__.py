"""Geometric and statistical substrate shared by every index in the repo.

- :mod:`repro.spatial.rect` — axis-aligned rectangle (MBR) algebra,
- :mod:`repro.spatial.zcurve` — d-dimensional Morton (Z-order) codes,
- :mod:`repro.spatial.hilbert` — d-dimensional Hilbert codes,
- :mod:`repro.spatial.cdf` — the Kolmogorov–Smirnov dissimilarity of
  Section III (Definition 2),
- :mod:`repro.spatial.quadtree` — 2^d-ary space partitioning (Algorithm 2),
- :mod:`repro.spatial.kmeans` — Lloyd's k-means with k-means++ seeding,
- :mod:`repro.spatial.idistance` — the iDistance mapping used by ML-Index.
"""

from repro.spatial.cdf import ks_distance
from repro.spatial.hilbert import hilbert_decode, hilbert_encode
from repro.spatial.kmeans import KMeansResult, kmeans
from repro.spatial.quadtree import QuadTree, QuadTreeNode
from repro.spatial.rect import Rect
from repro.spatial.zcurve import morton_decode, morton_encode

__all__ = [
    "KMeansResult",
    "QuadTree",
    "QuadTreeNode",
    "Rect",
    "hilbert_decode",
    "hilbert_encode",
    "kmeans",
    "ks_distance",
    "morton_decode",
    "morton_encode",
]
