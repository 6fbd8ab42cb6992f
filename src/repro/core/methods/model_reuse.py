"""MR: model reuse (Section V-A3, after Liu et al. [16]).

MR pre-generates synthetic data sets whose CDFs heuristically cover the
CDF space with granularity ε, and pre-trains an index model on each.  At
build time it finds the synthetic set most similar to ``D`` (by the KS
dissimilarity of Definition 2, computed on min-max-normalised keys) and
reuses that set's model — no online training at all, which is why MR owns
the fast-build end of Figure 7 and is the selector's favourite at λ ≥ 0.8.

If no synthetic set is within ε of ``D``, MR fails for this data set (the
paper: "if ε is too small, no pre-trained models may be reused") and the
build processor falls back to another method.

The synthetic family is the two-piece-linear CDF of
:mod:`repro.data.controlled`, in both skew directions, with deltas spaced
ε/2 apart so any in-family CDF is within ε of some pool member.
Pre-training is a one-off preparation cost (Section VII-B2) and is cached
per (ε, network shape, seed) at module level.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.methods.base import BuildMethod, MethodResult
from repro.data.controlled import keys_with_uniform_distance
from repro.indices.base import MapFn, normalise_keys
from repro.ml.ffn import FFN
from repro.ml.trainer import TrainConfig, train_regressor
from repro.spatial.cdf import ks_distance

__all__ = ["MethodFailure", "ModelReuseMethod"]

# (epsilon, hidden, epochs, pool_size, seed) -> list of (synthetic sorted
# keys, trained state_dict).  Pre-training is offline preparation, shared by
# all MR instances in the process.
_POOL_CACHE: dict[tuple, list[tuple[np.ndarray, dict]]] = {}


class MethodFailure(RuntimeError):
    """Raised when a build method cannot produce a usable training set."""


def _build_pool(
    epsilon: float, hidden: int, epochs: int, pool_points: int, seed: int
) -> list[tuple[np.ndarray, dict]]:
    """Pre-generate synthetic key sets and pre-train a model on each."""
    key = (round(epsilon, 6), hidden, epochs, pool_points, seed)
    if key in _POOL_CACHE:
        return _POOL_CACHE[key]
    spacing = max(epsilon / 2.0, 0.02)
    deltas = list(np.arange(0.0, 0.95, spacing))
    pool: list[tuple[np.ndarray, dict]] = []
    config = TrainConfig(epochs=epochs)
    for i, delta in enumerate(deltas):
        for mirror in (False, True):
            if mirror and delta == 0.0:
                continue
            keys = np.sort(keys_with_uniform_distance(pool_points, delta, seed=seed + i))
            if mirror:
                # Mirrored skew: mass concentrated near 1 instead of 0.
                keys = np.sort(1.0 - keys)
            ranks = np.arange(pool_points) / (pool_points - 1)
            net = FFN([1, hidden, 1], seed=seed)
            train_regressor(net, keys, ranks, config)
            pool.append((keys, net.state_dict()))
    _POOL_CACHE[key] = pool
    return pool


class ModelReuseMethod(BuildMethod):
    """MR: reuse the pre-trained model of the most similar synthetic set."""

    name = "MR"
    requires_map_fn = False

    def __init__(
        self,
        epsilon: float = 0.5,
        hidden_size: int = 16,
        train_epochs: int = 500,
        pool_points: int = 256,
        seed: int = 0,
    ) -> None:
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
        self.epsilon = epsilon
        self.hidden_size = hidden_size
        self.train_epochs = train_epochs
        self.pool_points = pool_points
        self.seed = seed

    def prepare(self) -> int:
        """Force pool generation + pre-training; returns the pool size n_mr."""
        pool = _build_pool(
            self.epsilon, self.hidden_size, self.train_epochs, self.pool_points, self.seed
        )
        return len(pool)

    def compute_set(
        self,
        sorted_keys: np.ndarray,
        sorted_points: np.ndarray,
        map_fn: MapFn | None,
    ) -> MethodResult:
        pool = _build_pool(
            self.epsilon, self.hidden_size, self.train_epochs, self.pool_points, self.seed
        )
        started = time.perf_counter()
        lo, hi = float(sorted_keys[0]), float(sorted_keys[-1])
        normalised = normalise_keys(sorted_keys, lo, hi - lo)
        # O(n_mr * n_S log n): the synthetic sets are the small side of the
        # KS computation, per the Section III fast algorithm.
        best_dist = np.inf
        best: tuple[np.ndarray, dict] | None = None
        for keys, state in pool:
            dist = ks_distance(keys, normalised, assume_sorted=True)
            if dist < best_dist:
                best_dist = dist
                best = (keys, state)
        elapsed = time.perf_counter() - started
        if best is None or best_dist > self.epsilon:
            raise MethodFailure(
                f"MR: no pre-trained model within epsilon={self.epsilon} "
                f"(closest at dist={best_dist:.3f})"
            )
        keys, state = best
        ranks = self._self_ranks(len(keys))
        return MethodResult(keys, ranks, elapsed, pretrained_state=state)
