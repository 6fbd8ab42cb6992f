"""The paper's evaluation (Section VII) as one table of cells.

A cell is ``(dataset, n, index, variant, lam, seed)``.  Running it builds
that index once and records everything any table or figure reads from the
build: build seconds with the ``BuildStats`` decomposition, ``error_width``,
the methods chosen, and point / window / kNN microseconds with recall, every
query timed by :func:`~repro.bench.harness.timed` (a warm-up pass, then the
median of :data:`QUERY_REPEATS` passes).  :func:`grid` lists the cells behind
Tables I–II and Figures 6–16, each shared build once; :func:`run_grid`
appends one JSON line per finished cell, so a run resumes where it stopped
and a failed cell keeps its error text and is retried.  Per-seed state (the
trained selector with its records, the data sets) lives in a
:class:`Context` — the paper's "off-line and one-off" ELSI preparation.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.baselines import GridIndex, HRRIndex, KDBIndex, RStarIndex
from repro.bench.harness import ExperimentScale, timed
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
from repro.queries.evaluate import brute_force_window, knn_recall, window_recall
from repro.queries.workload import knn_workload, point_workload, window_workload

__all__ = ["Cell", "Context", "failed_rows", "grid", "load_rows", "run_cell", "run_grid"]

#: Of the paper's four base indices (``LEARNED_INDICES``) these are
#: reported; ZM is used for the method studies (Section VII-A).
REPORTED_INDICES = ("ML", "LISA", "RSMI")

TRADITIONAL_INDICES = {"Grid": GridIndex, "KDB": KDBIndex, "HRR": HRRIndex, "RR*": RStarIndex}

#: The paper's six evaluation data sets (Figure 8 x-axis order).
DATASET_NAMES = ("Uniform", "Skewed", "OSM1", "OSM2", "TPC-H", "NYC")

LAMS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_LAM = ELSIConfig().lam
ALL_METHODS = ("SP", "RSP", "CL", "MR", "RS", "RL", "OG")
TABLE2_COLUMNS = ("ELSI", "Rand", "SP", "CL", "MR", "RS", "RL", "OG")

#: Figure 7's sweeps, ``(method, label, ELSIConfig overrides)``: ρ up for
#: SP/RSP, C up for CL, ε down for MR, β down for RS, η up for RL.
FIG7_SWEEPS = (
    *((m, f"rho={v}", {"rho": v}) for v in (0.002, 0.01, 0.05) for m in ("SP", "RSP")),
    *(("CL", f"C={v}", {"n_clusters": v}) for v in (50, 200, 800)),
    *(("MR", f"eps={v}", {"epsilon": v}) for v in (0.5, 0.3, 0.1)),
    *(("RS", f"beta={v}", {"beta": v}) for v in (400, 100, 25)),
    *(("RL", f"eta={v}", {"eta": v}) for v in (4, 8, 16)),
    ("OG", "full", {}),
)

#: Data sets of the λ sweeps with what each sweep reads beside the build
#: time (Fig. 9: Skewed, OSM1; Fig. 11: OSM1, TPC-H; Fig. 13(a): OSM1).
LAMBDA_SWEEPS = {"Skewed": (), "OSM1": ("point", "window"), "TPC-H": ("point",)}

#: Expected result counts of Figure 13(b)'s windows.  The paper sweeps
#: 0.0006 %–0.16 % of the space at n = 1.28e8; at reduced cardinality those
#: windows would be empty, so the sweep keeps the paper's *selectivity*.
SIZE_SWEEP_RESULTS = (3, 12, 50, 200, 800)

#: Figures 15/16: cumulative insertions as a share of the base cardinality
#: (Fig. 16 reads every second step and the last).
INSERT_RATIOS = (0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28)

WINDOW_AREA = 1e-4  # Figures 12, 13(a), 16: 0.01 % of the space
QUERY_REPEATS = 3

KEY = ("dataset", "n", "index", "variant", "lam", "seed")


def variant_name(method: str, label: str, overrides: dict) -> str:
    """A fixed method's variant: its name, plus the swept parameter unless
    that is the default (a sweep's default point *is* Table II's cell)."""
    defaults = ELSIConfig()
    if all(getattr(defaults, k) == v for k, v in overrides.items()):
        return method
    return f"{method} {label}"


@dataclass
class Cell:
    """One index to build on one data set, and what to measure on it.
    ``variant``: ``""`` (a traditional index), ``OG``, ``F`` (the learned
    selector at ``lam``), ``Rand``, a fixed method (with its swept
    parameter), ``selector`` (Figure 6) or ``updates[-F|-R]`` (one insert
    trajectory of Figures 15/16)."""

    dataset: str
    n: int
    index: str
    variant: str
    lam: float | None = None
    overrides: dict = field(default_factory=dict)
    measures: set[str] = field(default_factory=set, init=False)

    def key(self, seed: int) -> tuple:
        return (self.dataset, self.n, self.index, self.variant, self.lam, seed)


def grid(scale: ExperimentScale) -> list[Cell]:
    """Every cell Section VII needs, each once, in execution order."""
    cells: dict[tuple, Cell] = {}

    def add(dataset, index, variant, *measures, lam=None, n=scale.n, overrides=None):
        if index == "LISA" and variant.split(" ")[0] in ("CL", "RL"):
            return  # inapplicable (Section VII-A)
        cell = cells.setdefault(
            (dataset, index, variant, lam),
            Cell(dataset, n, index, variant, lam, overrides or {}),
        )
        cell.measures.update(measures)

    # Figure 6: the selector's training grid and its held-out twin.
    add("controlled", "ZM", "selector", n=max(scale.selector_cardinalities))
    # Figures 8 / 10 / 12 / 14: every index on every data set.
    for dataset in DATASET_NAMES:
        for name in TRADITIONAL_INDICES:
            add(dataset, name, "", "point", "window", "knn")
        for name in REPORTED_INDICES:
            add(dataset, name, "OG", "point", "window", "knn")
            add(dataset, name, "F", "point", "window", "knn", lam=DEFAULT_LAM)
    # Figures 9 / 11 / 13(a): the -F indices against lambda.
    for dataset, measures in LAMBDA_SWEEPS.items():
        for name in REPORTED_INDICES:
            for lam in LAMS:
                add(dataset, name, "F", *measures, lam=lam)
    # Figure 7 and Tables I / II: methods and selectors on OSM1.
    for name in LEARNED_INDICES:
        for method, label, overrides in FIG7_SWEEPS:
            add("OSM1", name, variant_name(method, label, overrides), "point",
                overrides=overrides)
        for column in TABLE2_COLUMNS[2:]:
            add("OSM1", name, column, "point")
        add("OSM1", name, "F", "point", lam=DEFAULT_LAM)
        add("OSM1", name, "Rand", "point")
    # Figure 13(b): window size sweep.
    for name in REPORTED_INDICES:
        add("OSM1", name, "F", "sizes", lam=DEFAULT_LAM)
    add("OSM1", "RSMI", "OG", "sizes")
    add("OSM1", "RR*", "", "sizes")
    # Figures 15 / 16: one insert trajectory per variant.
    base_n = max(scale.n // 10, 500)
    for name in REPORTED_INDICES:
        add("OSM1", name, "updates-F", lam=DEFAULT_LAM, n=base_n)
        add("OSM1", name, "updates-R", lam=DEFAULT_LAM, n=base_n)
    add("OSM1", "RR*", "updates", n=base_n)
    return list(cells.values())


@dataclass
class Context:
    """One seed's shared, lazily prepared experiment state."""

    scale: ExperimentScale
    seed: int = 0
    _records: dict[int, list] = field(default_factory=dict)
    _datasets: dict[str, np.ndarray] = field(default_factory=dict)

    @cached_property
    def config(self) -> ELSIConfig:
        return ELSIConfig(
            train_epochs=self.scale.train_epochs, rl_steps=self.scale.rl_steps, seed=self.seed
        )

    def config_with(self, **overrides) -> ELSIConfig:
        return replace(self.config, **overrides)

    def dataset(self, name: str) -> np.ndarray:
        if name not in self._datasets:
            self._datasets[name] = load_dataset(name, self.scale.n, seed=self.seed)
        return self._datasets[name]

    def selector_records(self, seed: int) -> list:
        """Per-method speedups measured over the scale's (n, dist) grid
        generated from ``seed``, collected once: ``self.seed`` is what the
        selector trains on, the next seed Figure 6's held-out grid."""
        if seed not in self._records:
            self._records[seed] = collect_selector_data(
                lambda b: ZMIndex(builder=b, branching=1),
                config=self.config,
                cardinalities=self.scale.selector_cardinalities,
                deltas=self.scale.selector_deltas,
                n_queries=self.scale.n_point_queries,
                seed=seed,
            )
        return self._records[seed]

    @cached_property
    def selector(self) -> MethodScorer:
        """The trained FFN method selector (one-off preparation)."""
        return train_ffn_selector(
            self.selector_records(self.seed), tuple(self.config.methods), seed=self.seed
        )

    def build(self, cell: Cell, points: np.ndarray):
        """(built index, cold build seconds) of ``cell``'s index on ``points``."""
        if cell.index in TRADITIONAL_INDICES:
            index = TRADITIONAL_INDICES[cell.index]()
        else:
            if cell.lam is not None:
                config = self.config_with(lam=cell.lam)
                choice = {"selector": self.selector}
            elif cell.variant == "Rand":
                config, choice = self.config, {"random_choice": True}
            else:
                config = self.config_with(methods=ALL_METHODS, **cell.overrides)
                choice = {"method": cell.variant.split(" ")[0]}
            # MR's pool is off-line preparation: never part of a build time.
            ModelReuseMethod(
                epsilon=config.epsilon,
                hidden_size=config.hidden_size,
                train_epochs=config.train_epochs,
                seed=self.seed,
            ).prepare()
            index = LEARNED_INDICES[cell.index](builder=ELSIModelBuilder(config, **choice))
        _, seconds = timed(lambda: index.build(points))
        return index, seconds

    def query_us(self, index, queries) -> tuple[list, float]:
        """(results, µs per query) of a workload list under the timing rule."""
        if not queries:
            raise ValueError("need at least one query")
        results, seconds = timed(
            lambda: [q.run(index) for q in queries], warmup=True, repeats=QUERY_REPEATS
        )
        return results, seconds / len(queries) * 1e6


# ---- What a cell measures on its built index ----
def measure_point(ctx: Context, index, points: np.ndarray) -> dict:
    queries = point_workload(points, ctx.scale.n_point_queries, seed=ctx.seed)
    return {"point_us": ctx.query_us(index, queries)[1]}


def measure_window(ctx: Context, index, points, n_queries=None, area=WINDOW_AREA) -> dict:
    queries = window_workload(
        points, n_queries or ctx.scale.n_window_queries, area, seed=ctx.seed
    )
    results, us = ctx.query_us(index, queries)
    recalls = [
        window_recall(res, brute_force_window(points, q.window))
        for q, res in zip(queries, results)
    ]
    return {
        "window_us": us,
        "window_recall": float(np.mean(recalls)),
        "window_results": float(np.mean([len(res) for res in results])),
    }


def measure_knn(ctx: Context, index, points: np.ndarray) -> dict:
    queries = knn_workload(points, ctx.scale.n_knn_queries, k=ctx.scale.k, seed=ctx.seed)
    results, us = ctx.query_us(index, queries)
    recalls = [knn_recall(res, points, q.array, q.k) for q, res in zip(queries, results)]
    return {"knn_us": us, "knn_recall": float(np.mean(recalls))}


def measure_sizes(ctx: Context, index, points: np.ndarray) -> dict:
    n_queries = max(ctx.scale.n_window_queries // 2, 10)
    fractions = [min(0.5, expected / len(points)) for expected in SIZE_SWEEP_RESULTS]
    return {"sizes": [
        {"fraction": f, **measure_window(ctx, index, points, n_queries, f)} for f in fractions
    ]}


MEASURES = {"point": measure_point, "window": measure_window, "knn": measure_knn,
            "sizes": measure_sizes}


def run_cell(ctx: Context, cell: Cell) -> dict:
    """Build ``cell``'s index once and measure what the grid asks of it."""
    if cell.variant == "selector":
        return _selector_cell(ctx)
    points = ctx.dataset(cell.dataset)
    if cell.variant.startswith("updates"):
        return _updates_cell(ctx, cell, points[: cell.n])
    index, seconds = ctx.build(cell, points)
    row: dict = {"build_seconds": seconds}
    if cell.index in LEARNED_INDICES:
        row.update(asdict(index.build_stats), error_width=index.error_width)
    for kind in sorted(cell.measures):
        row.update(MEASURES[kind](ctx, index, points))
    return row


def _selector_cell(ctx: Context) -> dict:
    """Figure 6(a): FFN accuracy vs λ for growing cardinality caps u.
    Figure 6(b): FFN vs RFR / RFC / DTR / DTC selectors.

    Trained on the grid's own selector records; accuracy is measured on
    *held-out* records — the same (n, dist) grid regenerated with the next
    seed — which is stricter than the paper's in-sample accuracy.
    """
    cards = ctx.scale.selector_cardinalities
    methods = tuple(ctx.config.methods)
    train_records = ctx.selector_records(ctx.seed)
    test_records = ctx.selector_records(ctx.seed + 1)

    def accuracies(selector_at, records) -> list[float]:
        return [selector_accuracy(selector_at(lam), records, lam) for lam in LAMS]

    fig_a: dict[str, list[float]] = {}
    for u in range(1, len(cards) + 1):
        if u == len(cards):
            scorer = ctx.selector
        else:
            train_u = [r for r in train_records if r.n in cards[:u]]
            scorer = train_ffn_selector(train_u, methods, seed=ctx.seed)
        test_u = [r for r in test_records if r.n in cards[:u]]
        fig_a[f"u={u}"] = accuracies(lambda lam: scorer, test_u)

    fig_b = {"FFN": fig_a[f"u={len(cards)}"]}
    for kind in ("RFR", "DTR"):
        regressor = TreeSelector(kind, seed=ctx.seed).fit(train_records)
        fig_b[kind] = accuracies(lambda lam: regressor, test_records)
    for kind in ("RFC", "DTC"):
        fig_b[kind] = accuracies(
            lambda lam: TreeSelector(kind, seed=ctx.seed).fit(train_records, lam=lam),
            test_records,
        )
    return {"fig6a": fig_a, "fig6b": fig_b}


def _updates_cell(ctx: Context, cell: Cell, base: np.ndarray) -> dict:
    """Figures 15/16: Skewed insertions into an index built on 10 % of
    OSM1, measuring point and window queries after each cumulative ratio.

    The learned indices use their *built-in* insertion (the paper's Figure
    15 setting: the structure itself degrades); only ``-R`` consults the
    rebuild predictor after each batch.  RR* inserts natively.
    """
    inserts = skewed(int(INSERT_RATIOS[-1] * len(base)) + 1, seed=ctx.seed + 7)
    target, _ = ctx.build(cell, base)
    if cell.index in LEARNED_INDICES:
        target = UpdateProcessor(target, native=True)
    trajectory = []
    cursor = 0
    for ratio in INSERT_RATIOS:
        batch = inserts[cursor : int(ratio * len(base))]
        cursor += len(batch)
        _, seconds = timed(lambda: [target.insert(p) for p in batch])
        rebuilt = cell.variant == "updates-R" and target.to_rebuild()
        if rebuilt:
            target.rebuild()
        points_now = np.vstack([base, inserts[:cursor]])
        trajectory.append(
            {
                "ratio": ratio,
                "insert_us": seconds / max(len(batch), 1) * 1e6,
                "rebuilt": bool(rebuilt),
                **measure_point(ctx, target, points_now),
                **measure_window(
                    ctx, target, points_now, max(ctx.scale.n_window_queries // 4, 10)
                ),
            }
        )
    return {"trajectory": trajectory}


# ---- The rows file ----
def load_rows(path) -> list[dict]:
    """Every line of a rows file (``[]`` when it does not exist yet)."""
    if not Path(path).exists():
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def row_key(row: dict) -> tuple:
    return tuple(row[k] for k in KEY)


def failed_rows(rows: list[dict]) -> list[dict]:
    """The cells whose latest attempt failed (what the next run retries)."""
    last = {row_key(row): row for row in rows if "stamp" not in row}
    return [row for row in last.values() if "error" in row]


def _stamp(scale: ExperimentScale) -> dict:
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent, capture_output=True, text=True,
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "commit": commit or "unknown",
        "host": f"{platform.node()} ({platform.machine()}, {os.cpu_count()} CPUs)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "date": time.strftime("%Y-%m-%d"),
        "scale": asdict(scale),
    }


def run_grid(scale: ExperimentScale, path, log=lambda message: None) -> list[dict]:
    """Run every cell of ``grid(scale)`` × ``scale.seeds`` that ``path``
    does not already hold a good row for; returns all rows of the file.

    Each session that has work to do first appends a ``{"stamp": ...}``
    line (commit, host, versions, date, scale).  A cell that raises is
    stored with its traceback under ``"error"`` and does not stop the run;
    the next run retries it, and readers take the last row per key.
    """
    done = {row_key(r) for r in load_rows(path) if "stamp" not in r and "error" not in r}
    cells = grid(scale)
    todo = [(seed, cell) for seed in scale.seeds for cell in cells
            if cell.key(seed) not in done]
    if todo:
        with open(path, "a") as out:
            out.write(json.dumps({"stamp": _stamp(scale)}) + "\n")
            ctx = None
            for i, (seed, cell) in enumerate(todo, 1):
                if ctx is None or ctx.seed != seed:
                    ctx = Context(scale, seed)
                row = dict(zip(KEY, cell.key(seed)))
                started = time.perf_counter()
                try:
                    row.update(run_cell(ctx, cell))
                except Exception:  # the run goes on; the row keeps the evidence
                    row["error"] = traceback.format_exc()
                out.write(json.dumps(row, default=lambda v: v.item()) + "\n")
                out.flush()
                log(f"[{i}/{len(todo)}] seed {seed} {cell.dataset} {cell.index} "
                    f"{cell.variant or '-'} lam={cell.lam}: "
                    f"{'FAILED' if 'error' in row else 'ok'} "
                    f"({time.perf_counter() - started:.1f} s)")
    return load_rows(path)
