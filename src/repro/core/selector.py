"""Method-selector training and evaluation (Sections IV-B1, VII-B2, VII-C).

Ground truth.  Following Section VII-B2, data sets are generated for a grid
of cardinalities (``10^l .. 10^u``) and distributions (``dist(D_U, D)``
from 0.0 to 0.9).  For each data set every applicable method builds an
index and point queries are run; the measured build/query speedups relative
to OG form one :class:`DatasetRecord`.  The paper's setting (l=4, u=8,
6 methods, 10 distances) yields 300 combinations; the scale here is a
parameter.

Selectors.  The FFN selector is :class:`repro.core.scorer.MethodScorer`.
For Figure 6(b) this module adds the four comparison selectors: random
forests and decision trees, each in a regression variant (R — predict the
two cost scores, then apply Equation 2) and a classification variant (C —
predict the best method label directly, trained per λ).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.scorer import MethodScorer, ScorerSample, build_score, query_score
from repro.data.controlled import dataset_with_uniform_distance
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.obs.trace import span as _span
from repro.spatial.cdf import uniform_dissimilarity
from repro.spatial.rect import Rect
from repro.spatial.zcurve import zvalues

__all__ = [
    "DatasetRecord",
    "TreeSelector",
    "best_method",
    "collect_selector_data",
    "records_to_samples",
    "selector_accuracy",
    "train_ffn_selector",
]


def _warm_mr_pool(config: ELSIConfig) -> None:
    """Pre-train MR's model pool before any timed build.

    Pool preparation is an offline, one-off cost in the paper
    (Section VII-B2); warming it here keeps it out of measured build times.
    """
    if "MR" not in config.methods:
        return
    from repro.core.methods.model_reuse import ModelReuseMethod

    ModelReuseMethod(
        epsilon=config.epsilon,
        hidden_size=config.hidden_size,
        train_epochs=config.train_epochs,
        seed=config.seed,
    ).prepare()


@dataclass
class DatasetRecord:
    """Measured speedups of every method on one generated data set."""

    n: int
    dist_u: float
    speedups: dict[str, tuple[float, float]] = field(default_factory=dict)

    def methods(self) -> list[str]:
        return list(self.speedups)


def _og_baseline(timings: dict[str, tuple[float, float]]) -> tuple[float, float]:
    """OG's (build, query) times, or the per-component max when OG was not
    measured.  The components are taken independently: a tuple-max would
    compare lexicographically and could pair the slowest build with an
    unrelated (possibly fast) query time."""
    if "OG" in timings:
        return timings["OG"]
    return (
        max(bt for bt, _qt in timings.values()),
        max(qt for _bt, qt in timings.values()),
    )


def _measure_cell(
    index_factory: Callable,
    cfg: ELSIConfig,
    n: int,
    delta: float,
    seed: int,
    n_queries: int,
    query_kind: str,
) -> DatasetRecord:
    """Build + query every method on one generated data set."""
    with _span("selector.cell", n=n, delta=delta) as cell_span:
        points = dataset_with_uniform_distance(n, delta, seed=seed)
        keys = np.sort(zvalues(points, Rect.bounding(points)).astype(np.float64))
        dist_u = uniform_dissimilarity(keys, assume_sorted=True)
        cell_span.set(dist_u=round(dist_u, 4))
        record = DatasetRecord(n=n, dist_u=dist_u)
        timings: dict[str, tuple[float, float]] = {}
        rng = np.random.default_rng(seed)
        query_ids = rng.integers(0, n, size=min(n_queries, n))
        if query_kind == "window":
            from repro.queries.workload import window_workload

            windows = window_workload(points, max(n_queries // 5, 5), 1e-3, seed=seed)
        for method in cfg.methods:
            with _span("selector.method", method=method, n=n):
                builder = ELSIModelBuilder(cfg, method=method)
                started = time.perf_counter()
                index = index_factory(builder)
                index.build(points)
                build_time = time.perf_counter() - started
                started = time.perf_counter()
                if query_kind == "point":
                    for qi in query_ids:
                        index.point_query(points[qi])
                else:
                    for window in windows:
                        window.run(index)
                query_time = time.perf_counter() - started
                timings[method] = (build_time, query_time)
        og_build, og_query = _og_baseline(timings)
        for method, (bt, qt) in timings.items():
            record.speedups[method] = (
                og_build / max(bt, 1e-9),
                og_query / max(qt, 1e-9),
            )
    return record


def collect_selector_data(
    index_factory,
    config: ELSIConfig | None = None,
    cardinalities: tuple[int, ...] = (500, 1_000, 2_000, 5_000, 10_000),
    deltas: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    n_queries: int = 200,
    seed: int = 0,
    query_kind: str = "point",
) -> list[DatasetRecord]:
    """Measure per-method build and query speedups over the (n, dist) grid.

    ``index_factory(builder)`` constructs the base index under test.  The
    distribution feature ``dist_u`` is measured from the data's Z-value keys
    — the same statistic the build processor computes online.

    ``query_kind`` selects the query cost the scorer optimises: ``"point"``
    (the paper's choice — "point queries are building blocks for more
    complex queries") or ``"window"`` (the paper: "Costs of other query
    types, e.g., window queries, can also be considered").

    Grid cells are independent build+query measurements and run one after
    another (what a process pool over the cells was measured to give, and
    why it is not here: docs/performance.md).
    """
    if query_kind not in ("point", "window"):
        raise ValueError(f"query_kind must be 'point' or 'window', got {query_kind!r}")
    cfg = config or ELSIConfig()
    _warm_mr_pool(cfg)
    with _span(
        "selector.collect",
        cells=len(cardinalities) * len(deltas),
        methods=len(cfg.methods),
        query_kind=query_kind,
    ):
        return [
            _measure_cell(index_factory, cfg, n, delta, seed + i, n_queries, query_kind)
            for n in cardinalities
            for i, delta in enumerate(deltas)
        ]


def records_to_samples(records: list[DatasetRecord]) -> list[ScorerSample]:
    """Flatten records into per-(method, data set) scorer training rows."""
    samples: list[ScorerSample] = []
    for record in records:
        for method, (bs, qs) in record.speedups.items():
            samples.append(
                ScorerSample(
                    method=method,
                    n=record.n,
                    dist_u=record.dist_u,
                    build_speedup=bs,
                    query_speedup=qs,
                )
            )
    return samples


def best_method(record: DatasetRecord, lam: float, w_q: float = 1.0) -> str:
    """Ground-truth Equation 2 winner from *measured* speedups."""
    best_name = None
    best_score = -np.inf
    for method, (bs, qs) in record.speedups.items():
        score = lam * build_score(bs) + (1.0 - lam) * w_q * query_score(qs)
        if score > best_score:
            best_name, best_score = method, score
    assert best_name is not None
    return best_name


def train_ffn_selector(
    records: list[DatasetRecord],
    method_names: tuple[str, ...] | None = None,
    epochs: int = 1500,
    seed: int = 0,
) -> MethodScorer:
    """Fit the paper's FFN method scorer on collected records."""
    if not records:
        raise ValueError("need at least one record")
    if method_names is None:
        method_names = tuple(records[0].methods())
    scorer = MethodScorer(method_names=method_names, seed=seed)
    with _span("selector.train", records=len(records), epochs=epochs):
        scorer.fit(records_to_samples(records), epochs=epochs)
    return scorer


class TreeSelector:
    """The RFR / RFC / DTR / DTC comparison selectors of Figure 6(b).

    Regression variants learn the two cost scores from (one-hot method,
    log-cardinality, dist) features and apply Equation 2 at selection time;
    classification variants learn the winning method label directly from
    (log-cardinality, dist), so they must be fitted per λ.
    """

    KINDS = ("RFR", "RFC", "DTR", "DTC")

    def __init__(self, kind: str, seed: int = 0) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {kind!r}")
        self.kind = kind
        self.seed = seed
        self.method_names: tuple[str, ...] = ()
        self._build_model = None
        self._query_model = None
        self._classifier = None
        self._fitted_lam: float | None = None

    @property
    def is_regression(self) -> bool:
        return self.kind.endswith("R")

    def _make_regressor(self):
        if self.kind == "RFR":
            return RandomForestRegressor(n_estimators=20, max_depth=10, seed=self.seed)
        return DecisionTreeRegressor(max_depth=10, seed=self.seed)

    def _make_classifier(self):
        if self.kind == "RFC":
            return RandomForestClassifier(n_estimators=20, max_depth=10, seed=self.seed)
        return DecisionTreeClassifier(max_depth=10, seed=self.seed)

    def _features(self, method: str, n: int, dist_u: float) -> np.ndarray:
        row = np.zeros(len(self.method_names) + 2)
        row[self.method_names.index(method)] = 1.0
        row[-2] = np.log10(n) / 8.0
        row[-1] = dist_u
        return row

    def fit(
        self, records: list[DatasetRecord], lam: float = 0.8, w_q: float = 1.0
    ) -> "TreeSelector":
        if not records:
            raise ValueError("need at least one record")
        self.method_names = tuple(records[0].methods())
        if self.is_regression:
            samples = records_to_samples(records)
            x = np.stack([self._features(s.method, s.n, s.dist_u) for s in samples])
            yb = np.array([build_score(s.build_speedup) for s in samples])
            yq = np.array([query_score(s.query_speedup) for s in samples])
            self._build_model = self._make_regressor().fit(x, yb)
            self._query_model = self._make_regressor().fit(x, yq)
        else:
            x = np.stack(
                [[np.log10(r.n) / 8.0, r.dist_u] for r in records]
            )
            y = np.array([best_method(r, lam, w_q) for r in records])
            self._classifier = self._make_classifier().fit(x, y)
            self._fitted_lam = lam
        return self

    def select(
        self,
        n: int,
        dist_u: float,
        methods: list[str],
        lam: float,
        w_q: float = 1.0,
    ) -> str:
        if self.is_regression:
            if self._build_model is None or self._query_model is None:
                raise RuntimeError("selector is not fitted")
            x = np.stack([self._features(m, n, dist_u) for m in methods])
            scores = lam * self._build_model.predict(x) + (
                1.0 - lam
            ) * w_q * self._query_model.predict(x)
            return methods[int(np.argmax(scores))]
        if self._classifier is None:
            raise RuntimeError("selector is not fitted")
        if self._fitted_lam is not None and abs(self._fitted_lam - lam) > 1e-9:
            raise ValueError(
                f"classification selector was fitted for lambda={self._fitted_lam}, "
                f"asked to select for lambda={lam}; refit per lambda"
            )
        label = str(self._classifier.predict([[np.log10(n) / 8.0, dist_u]])[0])
        if label in methods:
            return label
        # Predicted method inapplicable here: fall back to the first candidate.
        return methods[0]


def selector_accuracy(
    selector, records: list[DatasetRecord], lam: float, w_q: float = 1.0
) -> float:
    """Fraction of records where the selector picks the measured best method."""
    if not records:
        raise ValueError("need at least one record")
    correct = 0
    for record in records:
        truth = best_method(record, lam, w_q)
        predicted = selector.select(
            n=record.n,
            dist_u=record.dist_u,
            methods=record.methods(),
            lam=lam,
            w_q=w_q,
        )
        correct += predicted == truth
    return correct / len(records)
