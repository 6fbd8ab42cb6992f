"""Experiment drivers: one per table/figure of Section VII.

Each function regenerates the rows/series of a paper table or figure at the
given :class:`~repro.bench.harness.ExperimentScale` and returns structured
data; ``benchmarks/`` wraps them in pytest-benchmark cases and prints the
paper-style tables, and EXPERIMENTS.md records paper-vs-measured shapes.

Shared state (the trained method selector, the MR pool, generated data
sets) lives in a :class:`Context` so a full suite run prepares each once —
mirroring the paper's "ELSI preparation is an off-line and one-off task".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.baselines import GridIndex, HRRIndex, KDBIndex, RStarIndex
from repro.bench.harness import ExperimentScale, measure_query_seconds, time_call
from repro.core import (
    ELSIConfig,
    ELSIModelBuilder,
    MethodScorer,
    TreeSelector,
    collect_selector_data,
    selector_accuracy,
    train_ffn_selector,
)
from repro.core.methods.model_reuse import ModelReuseMethod
from repro.core.update_processor import UpdateProcessor
from repro.data import load_dataset
from repro.data.generators import skewed
from repro.indices import LEARNED_INDICES, ZMIndex
from repro.indices.base import LearnedSpatialIndex
from repro.queries.evaluate import brute_force_window, knn_recall, window_recall
from repro.queries.workload import knn_workload, point_workload, window_workload

__all__ = [
    "Context",
    "PAPER_INDICES",
    "TRADITIONAL_INDICES",
    "fig06_selector_accuracy",
    "fig07_pareto",
    "fig08_build_times",
    "fig09_build_vs_lambda",
    "fig10_point_query",
    "fig11_point_vs_lambda",
    "fig12_window",
    "fig13_window_sweeps",
    "fig14_knn",
    "fig15_updates",
    "fig16_window_updates",
    "table1_cost_decomposition",
    "table2_ablation",
]

#: The paper's four learned base indices by name ("ML", "LISA", "RSMI" are
#: reported; ZM is used for the method studies, Section VII-A); the classes
#: are :data:`repro.indices.LEARNED_INDICES`.
PAPER_INDICES = ("ZM", "ML", "RSMI", "LISA")

TRADITIONAL_INDICES = {
    "Grid": GridIndex,
    "KDB": KDBIndex,
    "HRR": HRRIndex,
    "RR*": RStarIndex,
}

#: The paper's six evaluation data sets (Figure 8 x-axis order).
DATASET_NAMES = ("Uniform", "Skewed", "OSM1", "OSM2", "TPC-H", "NYC")


@dataclass
class Context:
    """Shared, lazily prepared experiment state."""

    scale: ExperimentScale
    seed: int = 0
    _config: ELSIConfig | None = None
    _selector: MethodScorer | None = None
    _datasets: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def config(self) -> ELSIConfig:
        if self._config is None:
            self._config = ELSIConfig(
                train_epochs=self.scale.train_epochs,
                rl_steps=self.scale.rl_steps,
                seed=self.seed,
            )
        return self._config

    def config_with(self, **overrides) -> ELSIConfig:
        return replace(self.config, **overrides)

    def dataset(self, name: str, n: int | None = None) -> np.ndarray:
        n = n or self.scale.n
        key = f"{name}:{n}"
        if key not in self._datasets:
            self._datasets[key] = load_dataset(name, n, seed=self.seed)
        return self._datasets[key]

    @property
    def selector(self) -> MethodScorer:
        """The trained FFN method selector (one-off preparation)."""
        if self._selector is None:
            records = collect_selector_data(
                lambda b: ZMIndex(builder=b, branching=1),
                config=self.config,
                cardinalities=self.scale.selector_cardinalities,
                deltas=self.scale.selector_deltas,
                n_queries=self.scale.n_point_queries,
                seed=self.seed,
            )
            self._selector = train_ffn_selector(
                records, method_names=tuple(self.config.methods), seed=self.seed
            )
        return self._selector

    def warm_mr(self) -> None:
        """Pre-train MR's pool so it never counts toward build times."""
        ModelReuseMethod(
            epsilon=self.config.epsilon,
            hidden_size=self.config.hidden_size,
            train_epochs=self.config.train_epochs,
            seed=self.seed,
        ).prepare()

    # ------------------------------------------------------------------
    def build_learned(
        self,
        index_name: str,
        points: np.ndarray,
        method: str | None = None,
        use_selector: bool = False,
        random_choice: bool = False,
        lam: float | None = None,
    ) -> tuple[LearnedSpatialIndex, float]:
        """(built index, build seconds) for a learned index configuration."""
        config = self.config if lam is None else self.config_with(lam=lam)
        builder = ELSIModelBuilder(
            config,
            selector=self.selector if use_selector else None,
            method=method,
            random_choice=random_choice,
        )
        index = LEARNED_INDICES[index_name](builder=builder)
        _, seconds = time_call(index.build, points)
        return index, seconds

    def build_traditional(self, index_name: str, points: np.ndarray):
        """(built index, build seconds) for a traditional competitor."""
        index = TRADITIONAL_INDICES[index_name]()
        _, seconds = time_call(index.build, points)
        return index, seconds


# ----------------------------------------------------------------------
# Figure 6 — method selector accuracy
# ----------------------------------------------------------------------
def fig06_selector_accuracy(
    ctx: Context,
    lams: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
) -> dict:
    """Figure 6(a): FFN accuracy vs λ for growing cardinality caps u.
    Figure 6(b): FFN vs RFR / RFC / DTR / DTC selectors.

    Accuracy is measured on *held-out* records: the same (n, dist) grid
    regenerated with a different seed, which is stricter than the paper's
    in-sample accuracy and penalises overfitting tree selectors.
    """
    cards = ctx.scale.selector_cardinalities
    deltas = ctx.scale.selector_deltas
    factory = lambda b: ZMIndex(builder=b, branching=1)  # noqa: E731

    train_records = collect_selector_data(
        factory, ctx.config, cards, deltas, ctx.scale.n_point_queries, seed=ctx.seed
    )
    test_records = collect_selector_data(
        factory, ctx.config, cards, deltas, ctx.scale.n_point_queries, seed=ctx.seed + 1
    )

    # (a) vary u: train on prefixes of the cardinality list.
    fig_a: dict[int, list[tuple[float, float]]] = {}
    for u_index in range(1, len(cards) + 1):
        subset_cards = set(cards[:u_index])
        train_u = [r for r in train_records if r.n in subset_cards]
        scorer = train_ffn_selector(train_u, tuple(ctx.config.methods), seed=ctx.seed)
        test_u = [r for r in test_records if r.n in subset_cards]
        fig_a[u_index] = [
            (lam, selector_accuracy(scorer, test_u, lam)) for lam in lams
        ]

    # (b) model comparison on the full grid.
    fig_b: dict[str, list[tuple[float, float]]] = {}
    ffn = train_ffn_selector(train_records, tuple(ctx.config.methods), seed=ctx.seed)
    fig_b["FFN"] = [(lam, selector_accuracy(ffn, test_records, lam)) for lam in lams]
    for kind in ("RFR", "DTR"):
        selector = TreeSelector(kind, seed=ctx.seed).fit(train_records)
        fig_b[kind] = [
            (lam, selector_accuracy(selector, test_records, lam)) for lam in lams
        ]
    for kind in ("RFC", "DTC"):
        series = []
        for lam in lams:
            selector = TreeSelector(kind, seed=ctx.seed).fit(train_records, lam=lam)
            series.append((lam, selector_accuracy(selector, test_records, lam)))
        fig_b[kind] = series
    return {"fig6a": fig_a, "fig6b": fig_b}


# ----------------------------------------------------------------------
# Figure 7 — Pareto fronts of the build methods
# ----------------------------------------------------------------------
def fig07_pareto(ctx: Context, dataset: str = "OSM1") -> list[dict]:
    """Build-time vs point-query-time fronts per method and base index.

    Sweeps each method's parameter the way Figure 7 does: ρ up for SP/RSP,
    C up for CL, ε down for MR, β down for RS, η up for RL.
    """
    points = ctx.dataset(dataset)
    queries = point_workload(points, ctx.scale.n_point_queries, seed=ctx.seed)
    ctx.warm_mr()
    sweeps: list[tuple[str, str, dict]] = []
    for rho in (0.002, 0.01, 0.05):
        sweeps.append(("SP", f"rho={rho}", {"rho": rho}))
        sweeps.append(("RSP", f"rho={rho}", {"rho": rho}))
    for c in (50, 200, 800):
        sweeps.append(("CL", f"C={c}", {"n_clusters": c}))
    for eps in (0.5, 0.3, 0.1):
        sweeps.append(("MR", f"eps={eps}", {"epsilon": eps}))
    for beta in (400, 100, 25):
        sweeps.append(("RS", f"beta={beta}", {"beta": beta}))
    for eta in (4, 8, 16):
        sweeps.append(("RL", f"eta={eta}", {"eta": eta}))
    sweeps.append(("OG", "full", {}))

    rows: list[dict] = []
    all_methods = ("SP", "RSP", "CL", "MR", "RS", "RL", "OG")
    for index_name in PAPER_INDICES:
        for method, label, overrides in sweeps:
            if method in ("CL", "RL") and index_name == "LISA":
                continue  # inapplicable (Section VII-A)
            config = ctx.config_with(methods=all_methods, **overrides)
            builder = ELSIModelBuilder(config, method=method)
            index = LEARNED_INDICES[index_name](builder=builder)
            if method == "MR":
                ModelReuseMethod(
                    epsilon=config.epsilon,
                    hidden_size=config.hidden_size,
                    train_epochs=config.train_epochs,
                    seed=ctx.seed,
                ).prepare()
            _, build_seconds = time_call(index.build, points)
            query_seconds = measure_query_seconds(index, queries)
            rows.append(
                {
                    "index": index_name,
                    "method": method,
                    "param": label,
                    "build_seconds": build_seconds,
                    "query_us": query_seconds * 1e6,
                    "methods_used": dict(index.build_stats.methods_used),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Table I — cost decomposition on OSM1 with ZM
# ----------------------------------------------------------------------
def table1_cost_decomposition(ctx: Context, dataset: str = "OSM1") -> list[dict]:
    """Training / extra seconds and |Error| per method (ZM base index)."""
    from repro.core.costs import CostModel

    points = ctx.dataset(dataset)
    ctx.warm_mr()
    cost_model = CostModel(len(points), d=points.shape[1], config=ctx.config)
    rows: list[dict] = []
    for method in ctx.config.methods:
        builder = ELSIModelBuilder(ctx.config, method=method)
        index = ZMIndex(builder=builder)
        index.build(points)
        stats = index.build_stats
        analytical = cost_model.method_cost(method)
        rows.append(
            {
                "method": method,
                "training_formula": analytical.training_formula,
                "extra_formula": analytical.extra_formula,
                "prepare_seconds": stats.prepare_seconds,
                "training_seconds": stats.train_seconds,
                "extra_seconds": stats.extra_seconds,
                "error_width": index.error_width,
                "train_set_size": stats.train_set_size,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table II — ELSI vs Rand vs each fixed method
# ----------------------------------------------------------------------
def table2_ablation(ctx: Context, dataset: str = "OSM1") -> dict:
    """Build + point-query times for ELSI / Rand / SP / CL / MR / RS / RL / OG."""
    points = ctx.dataset(dataset)
    queries = point_workload(points, ctx.scale.n_point_queries, seed=ctx.seed)
    ctx.warm_mr()
    _ = ctx.selector  # prepare before timing

    columns = ["ELSI", "Rand", "SP", "CL", "MR", "RS", "RL", "OG"]
    build: dict[str, dict[str, float | None]] = {}
    query: dict[str, dict[str, float | None]] = {}
    for index_name in ("ZM", "RSMI", "ML", "LISA"):
        build[index_name] = {}
        query[index_name] = {}
        for column in columns:
            if index_name == "LISA" and column in ("CL", "RL"):
                build[index_name][column] = None  # NA in the paper's table
                query[index_name][column] = None
                continue
            kwargs: dict = {}
            if column == "ELSI":
                kwargs["use_selector"] = True
            elif column == "Rand":
                kwargs["random_choice"] = True
            else:
                kwargs["method"] = column
            index, build_seconds = ctx.build_learned(index_name, points, **kwargs)
            build[index_name][column] = build_seconds
            query[index_name][column] = measure_query_seconds(index, queries) * 1e6
    return {"columns": columns, "build_seconds": build, "query_us": query}


# ----------------------------------------------------------------------
# Figure 8 — build time vs data distribution
# ----------------------------------------------------------------------
def fig08_build_times(ctx: Context) -> dict:
    """Build seconds per data set for the 10 indices of Figure 8."""
    ctx.warm_mr()
    _ = ctx.selector
    results: dict[str, dict[str, float]] = {}
    for name in DATASET_NAMES:
        points = ctx.dataset(name)
        row: dict[str, float] = {}
        for t_name in TRADITIONAL_INDICES:
            _, seconds = ctx.build_traditional(t_name, points)
            row[t_name] = seconds
        for l_name in ("ML", "LISA", "RSMI"):
            _, seconds = ctx.build_learned(l_name, points, method="OG")
            row[l_name] = seconds
            _, seconds = ctx.build_learned(l_name, points, use_selector=True)
            row[f"{l_name}-F"] = seconds
        results[name] = row
    return results


# ----------------------------------------------------------------------
# Figure 9 — build time vs lambda
# ----------------------------------------------------------------------
def fig09_build_vs_lambda(
    ctx: Context,
    datasets: tuple[str, ...] = ("Skewed", "OSM1"),
    lams: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
) -> dict:
    """Build seconds of the -F indices vs λ, with RR*/RSMI references."""
    ctx.warm_mr()
    _ = ctx.selector
    results: dict[str, dict] = {}
    for name in datasets:
        points = ctx.dataset(name)
        series: dict[str, list[tuple[float, float]]] = {
            "ML-F": [],
            "LISA-F": [],
            "RSMI-F": [],
        }
        methods_chosen: dict[float, dict[str, int]] = {}
        for lam in lams:
            chosen: dict[str, int] = {}
            for l_name in ("ML", "LISA", "RSMI"):
                index, seconds = ctx.build_learned(
                    l_name, points, use_selector=True, lam=lam
                )
                series[f"{l_name}-F"].append((lam, seconds))
                for m, c in index.build_stats.methods_used.items():
                    chosen[m] = chosen.get(m, 0) + c
            methods_chosen[lam] = chosen
        _, rr_seconds = ctx.build_traditional("RR*", points)
        og_seconds: dict[str, float] = {}
        for l_name in ("ML", "LISA", "RSMI"):
            _, og_seconds[l_name] = ctx.build_learned(l_name, points, method="OG")
        results[name] = {
            "series": series,
            "RR*": rr_seconds,
            "RSMI": og_seconds["RSMI"],
            "OG": og_seconds,
            "methods_chosen": methods_chosen,
        }
    return results


# ----------------------------------------------------------------------
# Figures 10/11 — point query times
# ----------------------------------------------------------------------
def fig10_point_query(ctx: Context) -> dict:
    """Average point query μs per data set for all indices (Figure 10)."""
    ctx.warm_mr()
    _ = ctx.selector
    results: dict[str, dict[str, float]] = {}
    for name in DATASET_NAMES:
        points = ctx.dataset(name)
        queries = point_workload(points, ctx.scale.n_point_queries, seed=ctx.seed)
        row: dict[str, float] = {}
        for t_name in TRADITIONAL_INDICES:
            index, _ = ctx.build_traditional(t_name, points)
            row[t_name] = measure_query_seconds(index, queries) * 1e6
        for l_name in ("ML", "LISA", "RSMI"):
            index, _ = ctx.build_learned(l_name, points, method="OG")
            row[l_name] = measure_query_seconds(index, queries) * 1e6
            index, _ = ctx.build_learned(l_name, points, use_selector=True)
            row[f"{l_name}-F"] = measure_query_seconds(index, queries) * 1e6
        results[name] = row
    return results


def fig11_point_vs_lambda(
    ctx: Context,
    datasets: tuple[str, ...] = ("OSM1", "TPC-H"),
    lams: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
) -> dict:
    """Point query μs of the -F indices vs λ (Figure 11)."""
    ctx.warm_mr()
    _ = ctx.selector
    results: dict[str, dict] = {}
    for name in datasets:
        points = ctx.dataset(name)
        queries = point_workload(points, ctx.scale.n_point_queries, seed=ctx.seed)
        series: dict[str, list[tuple[float, float]]] = {}
        for l_name in ("ML", "LISA", "RSMI"):
            row: list[tuple[float, float]] = []
            for lam in lams:
                index, _ = ctx.build_learned(l_name, points, use_selector=True, lam=lam)
                row.append((lam, measure_query_seconds(index, queries) * 1e6))
            series[f"{l_name}-F"] = row
        index, _ = ctx.build_traditional("RR*", points)
        rr = measure_query_seconds(index, queries) * 1e6
        index, _ = ctx.build_learned("RSMI", points, method="OG")
        rsmi = measure_query_seconds(index, queries) * 1e6
        results[name] = {"series": series, "RR*": rr, "RSMI": rsmi}
    return results


# ----------------------------------------------------------------------
# Figures 12/13 — window queries
# ----------------------------------------------------------------------
def _window_time_and_recall(index, queries, points) -> tuple[float, float]:
    started = time.perf_counter()
    results = [q.run(index) for q in queries]
    elapsed = (time.perf_counter() - started) / len(queries)
    recalls = [
        window_recall(res, brute_force_window(points, q.window))
        for q, res in zip(queries, results)
    ]
    return elapsed * 1e6, float(np.mean(recalls))


def fig12_window(ctx: Context, area_fraction: float = 1e-4) -> dict:
    """Window query μs and recall per data set (Figure 12, 0.01 % windows)."""
    ctx.warm_mr()
    _ = ctx.selector
    times: dict[str, dict[str, float]] = {}
    recalls: dict[str, dict[str, float]] = {}
    for name in DATASET_NAMES:
        points = ctx.dataset(name)
        queries = window_workload(
            points, ctx.scale.n_window_queries, area_fraction, seed=ctx.seed
        )
        t_row: dict[str, float] = {}
        r_row: dict[str, float] = {}
        for t_name in TRADITIONAL_INDICES:
            index, _ = ctx.build_traditional(t_name, points)
            t_row[t_name], _ = _window_time_and_recall(index, queries, points)
        for l_name in ("ML", "LISA", "RSMI"):
            index, _ = ctx.build_learned(l_name, points, method="OG")
            t_row[l_name], r_row[l_name] = _window_time_and_recall(index, queries, points)
            index, _ = ctx.build_learned(l_name, points, use_selector=True)
            t_row[f"{l_name}-F"], r_row[f"{l_name}-F"] = _window_time_and_recall(
                index, queries, points
            )
        times[name] = t_row
        recalls[name] = r_row
    return {"query_us": times, "recall": recalls}


def fig13_window_sweeps(
    ctx: Context,
    dataset: str = "OSM1",
    lams: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    area_fractions: tuple[float, ...] | None = None,
) -> dict:
    """Figure 13(a): window μs vs λ; (b): window μs vs window size.

    The paper sweeps 0.0006 %–0.16 % of the space at n = 1.28e8; at reduced
    cardinality those windows would be empty, so the default size sweep
    keeps the paper's *selectivity* shape: expected result counts grow
    geometrically from ~3 to ~800 points.
    """
    ctx.warm_mr()
    _ = ctx.selector
    points = ctx.dataset(dataset)
    if area_fractions is None:
        n = len(points)
        area_fractions = tuple(
            min(0.5, k / n) for k in (3, 12, 50, 200, 800)
        )
    queries = window_workload(points, ctx.scale.n_window_queries, 1e-4, seed=ctx.seed)

    by_lambda: dict[str, list[tuple[float, float]]] = {}
    for l_name in ("ML", "LISA", "RSMI"):
        series = []
        for lam in lams:
            index, _ = ctx.build_learned(l_name, points, use_selector=True, lam=lam)
            t, _ = _window_time_and_recall(index, queries, points)
            series.append((lam, t))
        by_lambda[f"{l_name}-F"] = series

    by_size: dict[str, list[tuple[float, float]]] = {}
    by_size_counts: dict[str, list[float]] = {}
    fixed_indices: dict[str, object] = {}
    for l_name in ("ML", "LISA", "RSMI"):
        fixed_indices[f"{l_name}-F"], _ = ctx.build_learned(
            l_name, points, use_selector=True
        )
    fixed_indices["RSMI"], _ = ctx.build_learned("RSMI", points, method="OG")
    fixed_indices["RR*"], _ = ctx.build_traditional("RR*", points)
    for label, index in fixed_indices.items():
        series = []
        counts = []
        for fraction in area_fractions:
            qs = window_workload(
                points, max(ctx.scale.n_window_queries // 2, 10), fraction, seed=ctx.seed
            )
            started = time.perf_counter()
            results = [q.run(index) for q in qs]
            elapsed = (time.perf_counter() - started) / len(qs)
            series.append((fraction, elapsed * 1e6))
            counts.append(float(np.mean([len(r) for r in results])))
        by_size[label] = series
        by_size_counts[label] = counts
    return {
        "by_lambda": by_lambda,
        "by_size": by_size,
        "by_size_counts": by_size_counts,
    }


# ----------------------------------------------------------------------
# Figure 14 — kNN queries
# ----------------------------------------------------------------------
def fig14_knn(ctx: Context) -> dict:
    """kNN query μs and recall per data set (Figure 14, k = 25)."""
    ctx.warm_mr()
    _ = ctx.selector
    times: dict[str, dict[str, float]] = {}
    recalls: dict[str, dict[str, float]] = {}
    for name in DATASET_NAMES:
        points = ctx.dataset(name)
        queries = knn_workload(
            points, ctx.scale.n_knn_queries, k=ctx.scale.k, seed=ctx.seed
        )
        t_row: dict[str, float] = {}
        r_row: dict[str, float] = {}

        def run(index, label: str) -> None:
            started = time.perf_counter()
            results = [q.run(index) for q in queries]
            t_row[label] = (time.perf_counter() - started) / len(queries) * 1e6
            r_row[label] = float(
                np.mean(
                    [
                        knn_recall(res, points, q.array, q.k)
                        for q, res in zip(queries, results)
                    ]
                )
            )

        for t_name in TRADITIONAL_INDICES:
            index, _ = ctx.build_traditional(t_name, points)
            run(index, t_name)
        for l_name in ("ML", "LISA", "RSMI"):
            index, _ = ctx.build_learned(l_name, points, method="OG")
            run(index, l_name)
            index, _ = ctx.build_learned(l_name, points, use_selector=True)
            run(index, f"{l_name}-F")
        times[name] = t_row
        recalls[name] = r_row
    return {"query_us": times, "recall": recalls}


# ----------------------------------------------------------------------
# Figures 15/16 — updates
# ----------------------------------------------------------------------
def _updates_experiment(
    ctx: Context,
    insert_ratios: tuple[float, ...],
    measure,
) -> dict:
    """Shared driver: 10 % of OSM1 as the base, Skewed insertions.

    ``measure(processor_or_index, points_now)`` returns a metrics dict; the
    driver records it per index variant after each cumulative ratio, along
    with average per-insert seconds.
    """
    ctx.warm_mr()
    _ = ctx.selector
    base_n = max(ctx.scale.n // 10, 500)
    base_points = ctx.dataset("OSM1")[:base_n]
    total_inserts = int(max(insert_ratios) * base_n)
    inserts = skewed(total_inserts + 1, seed=ctx.seed + 7)

    variants: dict[str, dict] = {}
    for l_name in ("ML", "LISA", "RSMI"):
        for rebuild in (False, True):
            label = f"{l_name}-{'R' if rebuild else 'F'}"
            index, _ = ctx.build_learned(l_name, base_points, use_selector=True)
            # Built-in insertion per the paper's Figure 15 setting: the
            # index structure itself degrades, and only -R repairs it.
            processor = UpdateProcessor(
                index, ctx.config, auto_rebuild=False, native=True
            )
            variants[label] = {"processor": processor, "rebuild": rebuild}
    rstar = RStarIndex()
    rstar.build(base_points)
    variants["RR*"] = {"rstar": rstar}

    results: dict[str, list[dict]] = {label: [] for label in variants}
    cursor = 0
    for ratio in insert_ratios:
        target = int(ratio * base_n)
        batch = inserts[cursor:target]
        cursor = target
        for label, state in variants.items():
            started = time.perf_counter()
            if "rstar" in state:
                for p in batch:
                    state["rstar"].insert(p)
            else:
                processor: UpdateProcessor = state["processor"]
                for p in batch:
                    processor.insert(p)
            insert_seconds = (time.perf_counter() - started) / max(len(batch), 1)
            rebuilt = False
            if state.get("rebuild") and state["processor"].to_rebuild():
                state["processor"].rebuild()
                rebuilt = True
            target_obj = state.get("rstar") or state["processor"]
            points_now = (
                np.vstack([base_points, inserts[:cursor]])
                if cursor
                else base_points
            )
            metrics = measure(target_obj, points_now)
            metrics.update(
                {
                    "ratio": ratio,
                    "insert_us": insert_seconds * 1e6,
                    "rebuilt": rebuilt,
                }
            )
            results[label].append(metrics)
    return results


def fig15_updates(
    ctx: Context,
    insert_ratios: tuple[float, ...] = (0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28),
) -> dict:
    """Figure 15: insertion μs and point-query μs vs insertion ratio."""

    def measure(index_or_processor, points_now) -> dict:
        rng = np.random.default_rng(ctx.seed)
        sample = points_now[
            rng.integers(0, len(points_now), size=min(ctx.scale.n_point_queries, len(points_now)))
        ]
        started = time.perf_counter()
        for p in sample:
            index_or_processor.point_query(p)
        return {"point_us": (time.perf_counter() - started) / len(sample) * 1e6}

    return _updates_experiment(ctx, insert_ratios, measure)


def fig16_window_updates(
    ctx: Context,
    insert_ratios: tuple[float, ...] = (0.01, 0.04, 0.16, 0.64, 1.28),
    area_fraction: float = 1e-4,
) -> dict:
    """Figure 16: window μs and recall vs insertion ratio."""

    def measure(index_or_processor, points_now) -> dict:
        queries = window_workload(
            points_now,
            max(ctx.scale.n_window_queries // 4, 10),
            area_fraction,
            seed=ctx.seed,
        )
        started = time.perf_counter()
        results = [q.run(index_or_processor) for q in queries]
        elapsed = (time.perf_counter() - started) / len(queries)
        recalls = [
            window_recall(res, brute_force_window(points_now, q.window))
            for q, res in zip(queries, results)
        ]
        return {"window_us": elapsed * 1e6, "recall": float(np.mean(recalls))}

    return _updates_experiment(ctx, insert_ratios, measure)
