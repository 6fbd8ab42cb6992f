"""Synthetic point generators for the paper's Uniform and Skewed data sets.

- ``uniform``: i.i.d. uniform in the unit hypercube (the paper's Uniform,
  128 M points there; cardinality is a parameter here).
- ``skewed``: uniform with every y-coordinate replaced by ``y**4``,
  exactly the construction the paper borrows from HRR [20].
"""

from __future__ import annotations

import numpy as np

__all__ = ["SKEW_EXPONENT", "skewed", "uniform"]

#: The exponent of the paper's Skewed set (HRR's construction).
SKEW_EXPONENT = 4.0


def uniform(n: int, d: int = 2, seed: int = 0) -> np.ndarray:
    """``n`` i.i.d. uniform points in [0, 1]^d."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    return rng.random((n, d))


def skewed(n: int, d: int = 2, seed: int = 0) -> np.ndarray:
    """The paper's Skewed set: uniform, then last coordinate raised to
    :data:`SKEW_EXPONENT`.

    The mass concentrates near 0 along that axis, producing the density
    skew that stresses grid-structured indices.
    """
    pts = uniform(n, d, seed)
    pts[:, -1] = pts[:, -1] ** SKEW_EXPONENT
    return pts

