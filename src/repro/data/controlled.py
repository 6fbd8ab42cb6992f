"""Data sets with a controlled KS distance from the uniform distribution.

The method scorer and rebuild predictor are trained on generated data sets
whose ``dist(D_U, D)`` is varied "from 0.0 to 0.9 with a step size of 0.1"
(Section VII-B2).  This module constructs such sets exactly.

Construction.  For a target distance ``delta`` we use a two-piece linear
CDF on [0, 1]: a fraction ``m = (1 + delta) / 2`` of the mass is uniform on
``[0, w]`` with ``w = (1 - delta) / 2``, and the rest uniform on ``[w, 1]``.
The CDF gap against the uniform grows linearly to exactly ``delta`` at
``x = w`` and decays linearly after it, so the *population* KS distance from
U(0, 1) is exactly ``delta`` for any ``delta in [0, 1)``.  Sampling is by
inverse transform; the empirical distance converges to ``delta`` at the
usual ``O(1/sqrt(n))`` rate.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dataset_with_uniform_distance",
    "keys_with_uniform_distance",
    "population_cdf",
]


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")


def population_cdf(x: np.ndarray, delta: float) -> np.ndarray:
    """The two-piece CDF with KS distance ``delta`` from U(0, 1)."""
    _check_delta(delta)
    xs = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
    if delta == 0.0:
        return xs
    w = (1.0 - delta) / 2.0
    m = (1.0 + delta) / 2.0
    left = m * xs / w
    right = m + (1.0 - m) * (xs - w) / (1.0 - w)
    return np.where(xs <= w, left, right)


def _inverse_cdf(u: np.ndarray, delta: float) -> np.ndarray:
    """Inverse of :func:`population_cdf` for inverse-transform sampling."""
    if delta == 0.0:
        return u
    w = (1.0 - delta) / 2.0
    m = (1.0 + delta) / 2.0
    left = u * w / m
    right = w + (u - m) * (1.0 - w) / (1.0 - m)
    return np.where(u <= m, left, right)


def keys_with_uniform_distance(n: int, delta: float, seed: int = 0) -> np.ndarray:
    """``n`` one-dimensional keys in [0, 1] with KS distance ``delta`` from uniform."""
    _check_delta(delta)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    # Stratified uniforms keep the empirical CDF close to the population CDF
    # even at small n, so the realised distance tracks the target tightly.
    u = (np.arange(n) + rng.random(n)) / max(n, 1)
    rng.shuffle(u)
    return _inverse_cdf(u, delta)


def dataset_with_uniform_distance(n: int, delta: float, seed: int = 0) -> np.ndarray:
    """(n, 2) points whose every marginal has KS distance ``delta`` from uniform.

    Coordinates are sampled independently, each through the two-piece CDF;
    ``delta = 0`` reduces to the uniform generator.
    """
    cols = [
        keys_with_uniform_distance(n, delta, seed=seed + 7919 * dim)
        for dim in range(2)
    ]
    return np.column_stack(cols) if n else np.empty((0, 2))
