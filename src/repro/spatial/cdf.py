"""Empirical CDFs and the Kolmogorov–Smirnov dissimilarity of Section III.

ELSI measures how well a small training set ``D_S`` approximates ``D`` by
Definition 2: ``sim(D_S, D) = 1 - sup_x |cdf_{K(D_S)}(x) - cdf_{K(D)}(x)|``,
the KS statistic over the *key values* of the two sets.

Two implementations are provided:

- :func:`ks_distance` — the paper's optimised ``O(n_S log n)`` algorithm
  that binary-searches the rank of every ``D_S`` key in ``D``,
- :func:`ks_distance_reference` — the classical ``O(n_S + n)`` merge scan,
  used in tests to validate the fast version.

Both expect (or internally create) sorted key arrays; the fast variant is
what the RL method's reward loop and the rebuild predictor call, so it also
supports reuse of a pre-sorted ``D``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dissimilarity",
    "empirical_cdf",
    "ks_distance",
    "ks_distance_reference",
    "similarity",
    "uniform_dissimilarity",
]


def _as_sorted(keys: np.ndarray, assume_sorted: bool) -> np.ndarray:
    # Floating keys keep their dtype (the CDF statistics only need ranks);
    # integers upcast to float64.
    arr = np.asarray(keys).ravel()
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    if len(arr) == 0:
        raise ValueError("cannot compute a CDF of an empty key set")
    if not assume_sorted:
        arr = np.sort(arr, kind="stable")
    return arr


def empirical_cdf(keys: np.ndarray, x: np.ndarray, assume_sorted: bool = False) -> np.ndarray:
    """Empirical CDF of ``keys`` evaluated at points ``x``.

    ``cdf(x) = |{k in keys : k <= x}| / |keys|``.
    """
    sorted_keys = _as_sorted(keys, assume_sorted)
    xs = np.asarray(x, dtype=np.float64)
    ranks = np.searchsorted(sorted_keys, xs, side="right")
    return ranks / len(sorted_keys)


def ks_distance(
    small: np.ndarray, large: np.ndarray, assume_sorted: bool = False
) -> float:
    """The paper's O(n_S log n) KS distance between key sets.

    For the i-th key of the small (sorted) set we binary-search its rank in
    the large set and track the largest CDF gap.  The supremum of the
    difference between two step functions is attained adjacent to a jump of
    either; checking both CDF sides at every key of *both* sets would be the
    exhaustive version, but because the small set's own jumps are where its
    CDF moves, evaluating gaps just before and at each small-set key (and
    the trailing gap) bounds the supremum exactly when the large set's CDF
    is also sampled at those keys — which the ``searchsorted`` ranks give us.
    """
    s = _as_sorted(small, assume_sorted)
    l = _as_sorted(large, assume_sorted)
    n_s = len(s)
    n = len(l)
    # CDF of the large set just before and at each small key.
    rank_left = np.searchsorted(l, s, side="left") / n
    rank_right = np.searchsorted(l, s, side="right") / n
    cdf_small_at = np.searchsorted(s, s, side="right") / n_s
    cdf_small_before = np.searchsorted(s, s, side="left") / n_s
    gap = np.maximum(
        np.abs(cdf_small_at - rank_right), np.abs(cdf_small_before - rank_left)
    )
    return float(gap.max())


def ks_distance_reference(small: np.ndarray, large: np.ndarray) -> float:
    """O(n_S + n) merge-scan KS distance (exhaustive, for validation)."""
    s = _as_sorted(small, assume_sorted=False)
    l = _as_sorted(large, assume_sorted=False)
    values = np.union1d(s, l)
    cdf_s = np.searchsorted(s, values, side="right") / len(s)
    cdf_l = np.searchsorted(l, values, side="right") / len(l)
    return float(np.abs(cdf_s - cdf_l).max())


def dissimilarity(
    small: np.ndarray, large: np.ndarray, assume_sorted: bool = False
) -> float:
    """``dist(D_S, D)`` of Definition 2 — alias of :func:`ks_distance`."""
    return ks_distance(small, large, assume_sorted=assume_sorted)


def similarity(
    small: np.ndarray, large: np.ndarray, assume_sorted: bool = False
) -> float:
    """``sim(D_S, D) = 1 - dist(D_S, D)`` of Definition 2."""
    return 1.0 - ks_distance(small, large, assume_sorted=assume_sorted)


def uniform_dissimilarity(keys: np.ndarray, assume_sorted: bool = False) -> float:
    """``dist(D_U, D)`` against a *continuous* uniform over the key range.

    The method scorer and rebuild predictor summarise a data set's
    distribution by its distance from a uniform set of the same size
    (Section IV-B1).  Using the analytical uniform CDF avoids materialising
    ``D_U``: for sorted keys ``k_i`` with ranks ``i/n``, the KS gap against
    ``U(min, max)`` is evaluated at every key (both CDF sides).
    """
    arr = _as_sorted(keys, assume_sorted)
    lo, hi = arr[0], arr[-1]
    if hi == lo:
        # All keys identical: the empirical CDF is a unit step, the uniform
        # is degenerate too; define the distance as 0.
        return 0.0
    n = len(arr)
    u = (arr - lo) / (hi - lo)
    ranks_at = np.arange(1, n + 1) / n
    ranks_before = np.arange(0, n) / n
    gap = np.maximum(np.abs(ranks_at - u), np.abs(ranks_before - u))
    return float(gap.max())
