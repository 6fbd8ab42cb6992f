"""The ELSI method scorer (Section IV-B1, Figure 4).

Two FFNs estimate, for a (method, data set) pair, the *build-cost score*
``C_B`` and the *query-cost score* ``C_Q`` — the predicted speedups of the
method relative to the base index's original (OG) build, per the paper's
ground-truth construction ("we record the speedups of index building and
querying relative to those of the original methods").  The combined score
is Equation 2::

    C(P, D) = lam * C_B(P, D) + (1 - lam) * w_q * C_Q(P, D)

and the method with the *maximum* score is selected.

Inputs (Figure 4, component 1): a one-hot method embedding, the data set
cardinality (log10, scaled), and its distribution summarised as
``dist(D_U, D)`` — the KS distance from a uniform set of the same size.

Score normalisation.  Build speedups span orders of magnitude while query
speedups cluster around 1.0; scoring raw speedups would let the build term
drown the query term at any λ.  Scores are therefore normalised to
comparable ranges: ``C_B = log2(build speedup) / 8`` (clipped to [0, 1.5])
and ``C_Q =`` the raw query speedup.  This reproduces the paper's observed
selection behaviour: OG/RS/RL win for small λ, MR for λ ≥ 0.8 (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.ffn import FFN
from repro.ml.trainer import TrainConfig, train_regressor

__all__ = ["MethodScorer", "ScorerSample", "build_score", "query_score"]


def build_score(build_speedup: float) -> float:
    """Normalised build-cost score from a raw build speedup."""
    if build_speedup <= 0:
        raise ValueError(f"speedups must be positive, got {build_speedup}")
    return float(np.clip(np.log2(build_speedup) / 8.0, 0.0, 1.5))


def query_score(query_speedup: float) -> float:
    """Normalised query-cost score from a raw query speedup."""
    if query_speedup <= 0:
        raise ValueError(f"speedups must be positive, got {query_speedup}")
    return float(np.clip(query_speedup, 0.0, 2.0))


@dataclass(frozen=True)
class ScorerSample:
    """One ground-truth record: a method's measured speedups on a data set."""

    method: str
    n: int
    dist_u: float
    build_speedup: float
    query_speedup: float


class MethodScorer:
    """The two-FFN cost estimator with Equation 2 scoring."""

    def __init__(
        self,
        method_names: tuple[str, ...] = ("SP", "CL", "MR", "RS", "RL", "OG"),
        hidden: int = 32,
        seed: int = 0,
    ) -> None:
        if not method_names:
            raise ValueError("need at least one method")
        self.method_names = tuple(method_names)
        self._index = {name: i for i, name in enumerate(self.method_names)}
        n_features = len(self.method_names) + 2
        self.build_net = FFN([n_features, hidden, 1], seed=seed)
        self.query_net = FFN([n_features, hidden, 1], seed=seed + 1)
        self._fitted = False

    # ------------------------------------------------------------------
    def features(self, method: str, n: int, dist_u: float) -> np.ndarray:
        """Figure 4 component 1: one-hot method + cardinality + distribution."""
        if method not in self._index:
            raise ValueError(f"unknown method {method!r}; known: {self.method_names}")
        if n < 1:
            raise ValueError(f"cardinality must be >= 1, got {n}")
        row = np.zeros(len(self.method_names) + 2)
        row[self._index[method]] = 1.0
        row[-2] = np.log10(n) / 8.0
        row[-1] = float(dist_u)
        return row

    def fit(self, samples: list[ScorerSample], epochs: int = 1500) -> None:
        """Train both cost FFNs on measured speedup records."""
        if not samples:
            raise ValueError("cannot fit the scorer without samples")
        x = np.stack([self.features(s.method, s.n, s.dist_u) for s in samples])
        y_build = np.array([build_score(s.build_speedup) for s in samples])
        y_query = np.array([query_score(s.query_speedup) for s in samples])
        config = TrainConfig(epochs=epochs, patience=200)
        train_regressor(self.build_net, x, y_build, config)
        train_regressor(self.query_net, x, y_query, config)
        self._fitted = True

    # ------------------------------------------------------------------
    def predict_scores(
        self, n: int, dist_u: float, methods: list[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(C_B, C_Q) per candidate method (Figure 4 component 3)."""
        if not self._fitted:
            raise RuntimeError("scorer is not fitted; call fit() first")
        x = np.stack([self.features(m, n, dist_u) for m in methods])
        return self.build_net.predict(x), self.query_net.predict(x)

    def combined_scores(
        self,
        n: int,
        dist_u: float,
        methods: list[str],
        lam: float,
        w_q: float = 1.0,
    ) -> np.ndarray:
        """Equation 2 for every candidate method."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {lam}")
        c_build, c_query = self.predict_scores(n, dist_u, methods)
        return lam * c_build + (1.0 - lam) * w_q * c_query

    def select(
        self,
        n: int,
        dist_u: float,
        methods: list[str],
        lam: float,
        w_q: float = 1.0,
    ) -> str:
        """The maximum-score method among the applicable candidates."""
        if not methods:
            raise ValueError("need at least one candidate method")
        scores = self.combined_scores(n, dist_u, methods, lam, w_q)
        return methods[int(np.argmax(scores))]
