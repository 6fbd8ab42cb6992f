"""Tables I–II, Figures 6–16 and EXPERIMENTS.md as pure functions of the rows.

:func:`by_seed` indexes the rows of :func:`repro.bench.experiments.run_grid`;
:func:`tables` pivots them into the paper's tables, each cell holding one
value per seed and printing as ``median ±half-range``; :func:`mean_ratios`
forms ratios *per seed*, so a host-speed step between seeds cancels;
:func:`shape_failures` makes the paper-shape checks on the medians and
:func:`claims` re-verdicts the eight headline claims.  :func:`render_report`
fills ``EXPERIMENTS.template.md`` (beside this module, holding the prose):
every table, measured number and verdict of EXPERIMENTS.md is a
``$placeholder``, so the committed report is ``python -m repro experiments
report`` of the committed rows, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from string import Template

import numpy as np

from repro.bench.experiments import (
    DATASET_NAMES,
    DEFAULT_LAM,
    FIG7_SWEEPS,
    INSERT_RATIOS,
    LAMS,
    REPORTED_INDICES,
    TABLE2_COLUMNS,
    TRADITIONAL_INDICES,
    variant_name,
)
from repro.bench.harness import format_table
from repro.core import ELSIConfig
from repro.core.costs import CostModel
from repro.indices import LEARNED_INDICES

__all__ = ["Table", "by_seed", "claims", "render_report", "shape_failures", "tables"]

F_LABELS = tuple(f"{name}-F" for name in REPORTED_INDICES)
GRID_LABELS = (
    *TRADITIONAL_INDICES,
    *(f"{name}{suffix}" for name in REPORTED_INDICES for suffix in ("", "-F")),
)
UPDATE_LABELS = (*(f"{name}-{v}" for name in REPORTED_INDICES for v in "FR"), "RR*")
LAM_COLS = [f"lam={lam}" for lam in LAMS]
FIG16_RATIOS = (*INSERT_RATIOS[::2], INSERT_RATIOS[-1])
SELECTOR_KEY = ("controlled", "ZM", "selector", None)


def by_seed(rows: list[dict]) -> dict[int, dict[tuple, dict]]:
    """``{seed: {(dataset, index, variant, lam): row}}`` — the last good
    row per cell (stamps and failed attempts dropped)."""
    data: dict[int, dict[tuple, dict]] = {}
    for row in rows:
        if "stamp" in row or "error" in row:
            continue
        key = (row["dataset"], row["index"], row["variant"], row["lam"])
        data.setdefault(row["seed"], {})[key] = row
    return dict(sorted(data.items()))


def get(cells: dict, dataset: str, label: str, field: str, lam: float = DEFAULT_LAM):
    """A field of the cell a figure label names: ``RR*`` (traditional),
    ``ML`` (built without ELSI: OG) or ``ML-F`` (selector-built at ``lam``);
    ``None`` when the cell is missing."""
    if label in TRADITIONAL_INDICES:
        key = (label, "", None)
    elif label.endswith("-F"):
        key = (label[:-2], "F", lam)
    else:
        key = (label, "OG", None)
    row = cells.get((dataset, *key))
    return row and row.get(field)


@dataclass
class Table:
    """A paper table: per cell the values of every seed (or fixed text)."""

    title: str
    corner: tuple[str, ...]
    cols: list[str]
    cells: dict[tuple, dict[str, list | str]]
    fmt: str | dict[str, str]

    def values(self, row, col) -> np.ndarray:
        """The per-seed values of one cell (``row``: a label or label tuple)."""
        return np.asarray(self.cells[row if isinstance(row, tuple) else (row,)][col])

    def med(self, row, col) -> float | None:
        values = self.values(row, col)
        return float(np.median(values)) if len(values) else None

    def _text(self, values, col: str) -> str:
        if isinstance(values, str):
            return values
        if not values:
            return "NA"
        fmt = self.fmt if isinstance(self.fmt, str) else self.fmt[col]
        text = fmt.format(np.median(values))
        if len(values) > 1:
            text += " ±" + fmt.format((max(values) - min(values)) / 2)
        return text

    def text(self) -> str:
        body = [
            [*row, *(self._text(cells[col], col) for col in self.cols)]
            for row, cells in self.cells.items()
        ]
        return format_table([*self.corner, *self.cols], body, title=self.title)


def pivot(data, title, corner, rows, cols, value, fmt) -> Table:
    """``value(cells_of_one_seed, *row, col)`` collected over the seeds."""
    def collect(row, col):
        values = [value(cells, *row, col) for cells in data.values()]
        if values and isinstance(values[0], str):
            return values[0]
        return [v for v in values if v is not None]

    rows = [row if isinstance(row, tuple) else (row,) for row in rows]
    corner = corner if isinstance(corner, tuple) else (corner,)
    cells = {row: {col: collect(row, col) for col in cols} for row in rows}
    return Table(title, corner, list(cols), cells, fmt)


def _by_dataset(data, title, field, fmt, labels=GRID_LABELS) -> Table:
    return pivot(data, title, "data set", DATASET_NAMES, labels,
                 lambda cells, dataset, label: get(cells, dataset, label, field), fmt)


def _by_lambda(data, title, dataset, field, fmt, refs=()) -> Table:
    def value(cells, label, col):
        if label.endswith(" (ref)"):
            return get(cells, dataset, label[: -len(" (ref)")], field)
        return get(cells, dataset, label, field, lam=float(col[len("lam="):]))

    return pivot(data, title, "index", (*F_LABELS, *(f"{r} (ref)" for r in refs)),
                 LAM_COLS, value, fmt)


def _by_ratio(data, title, field, fmt, ratios=INSERT_RATIOS) -> Table:
    def value(cells, label, col):
        index, _, kind = label.partition("-")
        row = cells.get(("OSM1", index, f"updates-{kind}" if kind else "updates",
                         DEFAULT_LAM if kind else None))
        if row is None:
            return None
        return {f"{s['ratio'] * 100:.0f}%": s[field] for s in row["trajectory"]}[col]

    return pivot(data, title, "index", UPDATE_LABELS,
                 [f"{r * 100:.0f}%" for r in ratios], value, fmt)


def _fig6(data, title, corner, field) -> Table:
    first = next(iter(data.values()), {}).get(SELECTOR_KEY, {field: {}})

    def value(cells, label, col):
        row = cells.get(SELECTOR_KEY)
        return row and row[field][label][LAM_COLS.index(col)]

    return pivot(data, title, corner, list(first[field]), LAM_COLS, value, "{:.2f}")


def _fig7(data) -> Table:
    fields = {"build (s)": "build_seconds", "point query (us)": "point_us"}
    variants = {(m, label): variant_name(m, label, o) for m, label, o in FIG7_SWEEPS}
    rows = [
        (index, method, label)
        for index in LEARNED_INDICES
        for method, label in variants
        if not (index == "LISA" and method in ("CL", "RL"))
    ]

    def value(cells, index, method, label, col):
        row = cells.get(("OSM1", index, variants[method, label], None))
        return row and row[fields[col]]

    return pivot(data, "Figure 7: build vs query Pareto (OSM1)",
                 ("index", "method", "param"), rows, list(fields), value,
                 {"build (s)": "{:.3f}", "point query (us)": "{:.1f}"})


def _table1(data) -> Table:
    fields = {"T (s)": "train_seconds", "extra (s)": "extra_seconds",
              "|Error|": "error_width", "|D_S|": "train_set_size"}

    def value(cells, method, col):
        row = cells.get(("OSM1", "ZM", method, None))
        if row is None or col in fields:
            return row and row[fields[col]]
        cost = CostModel(row["n"]).method_cost(method)
        return cost.training_formula if col == "T formula" else cost.extra_formula

    return pivot(data, "Table I: cost decomposition on OSM1 (ZM)", "method",
                 ELSIConfig().methods,
                 ["T formula", "T (s)", "extra formula", "extra (s)", "|Error|", "|D_S|"],
                 value, {"T (s)": "{:.3f}", "extra (s)": "{:.3f}",
                         "|Error|": "{:.0f}", "|D_S|": "{:.0f}"})


def _table2(data, title, field, fmt) -> Table:
    def value(cells, index, col):
        variant, lam = ("F", DEFAULT_LAM) if col == "ELSI" else (col, None)
        row = cells.get(("OSM1", index, variant, lam))
        return row and row[field]

    return pivot(data, title, "index", ("ZM", "RSMI", "ML", "LISA"), TABLE2_COLUMNS, value, fmt)


def _fig13b(data, title, field, fmt) -> Table:
    labels = (*F_LABELS, "RSMI", "RR*")
    first = get(next(iter(data.values()), {}), "OSM1", "RR*", "sizes") or []
    cols = [f"{step['fraction'] * 100:.4f}%" for step in first]

    def value(cells, label, col):
        sizes = get(cells, "OSM1", label, "sizes")
        return sizes and sizes[cols.index(col)][field]

    return pivot(data, title, "index", labels, cols, value, fmt)


def tables(data: dict[int, dict[tuple, dict]]) -> dict[str, Table]:
    """Every table the paper's Section VII shows, keyed ``fig8``, ``table1``, …"""
    out = {
        "fig6a": _fig6(data, "Figure 6(a): FFN selector accuracy vs lambda", "cap", "fig6a"),
        "fig6b": _fig6(data, "Figure 6(b): selector model comparison", "model", "fig6b"),
        "fig7": _fig7(data),
        "table1": _table1(data),
        "table2_build": _table2(data, f"Table II: build time (s), lambda={DEFAULT_LAM}",
                                "build_seconds", "{:.3f}"),
        "table2_query": _table2(data, "Table II: point query time (us)", "point_us", "{:.1f}"),
        "fig8": _by_dataset(data, "Figure 8: build time (s) vs data distribution",
                            "build_seconds", "{:.3f}"),
        "fig10": _by_dataset(data, "Figure 10: point query time (us) vs data distribution",
                             "point_us", "{:.1f}"),
        "fig12a": _by_dataset(data, "Figure 12(a): window query time (us)", "window_us", "{:.0f}"),
        "fig12b": _by_dataset(data, "Figure 12(b): window recall", "window_recall", "{:.3f}",
                              GRID_LABELS[len(TRADITIONAL_INDICES):]),
        "fig13a": _by_lambda(data, "Figure 13(a): window time (us) vs lambda on OSM1",
                             "OSM1", "window_us", "{:.0f}"),
        "fig13b": _fig13b(data, "Figure 13(b): window time (us) vs window size on OSM1",
                          "window_us", "{:.0f}"),
        "fig13b_results": _fig13b(data, "Figure 13(b): mean results per window",
                                  "window_results", "{:.1f}"),
        "fig14a": _by_dataset(data, "Figure 14(a): kNN query time (us), k=25", "knn_us", "{:.0f}"),
        "fig14b": _by_dataset(data, "Figure 14(b): kNN recall, k=25", "knn_recall", "{:.3f}"),
        "fig15a": _by_ratio(data, "Figure 15(a): insertion time (us) vs insertion ratio",
                            "insert_us", "{:.1f}"),
        "fig15b": _by_ratio(data, "Figure 15(b): point query time (us) vs insertion ratio",
                            "point_us", "{:.1f}"),
        "fig16a": _by_ratio(data, "Figure 16(a): window query time (us) vs insertion ratio",
                            "window_us", "{:.0f}", FIG16_RATIOS),
        "fig16b": _by_ratio(data, "Figure 16(b): window recall vs insertion ratio",
                            "window_recall", "{:.3f}", FIG16_RATIOS),
    }
    for dataset in ("Skewed", "OSM1"):
        out[f"fig9_{dataset}"] = _by_lambda(
            data, f"Figure 9: build time (s) vs lambda on {dataset}",
            dataset, "build_seconds", "{:.3f}", refs=("RR*", "RSMI"))
    for dataset in ("OSM1", "TPC-H"):
        out[f"fig11_{dataset.replace('-', '')}"] = _by_lambda(
            data, f"Figure 11: point query time (us) vs lambda on {dataset}",
            dataset, "point_us", "{:.1f}", refs=("RR*", "RSMI"))
    return out


# ---- Per-seed ratios and annotations ----
def mean_ratios(data: dict, field: str, invert: bool = False) -> list[float]:
    """Per seed, the mean over data sets × reported indices of -F / no-ELSI
    (``invert``: no-ELSI / -F, the build speedup)."""
    def ratio(cells, dataset, name):
        pair = get(cells, dataset, f"{name}-F", field), get(cells, dataset, name, field)
        return pair[1] / pair[0] if invert else pair[0] / pair[1]

    return [
        float(np.mean([ratio(cells, d, i) for d in DATASET_NAMES for i in REPORTED_INDICES]))
        for cells in data.values()
    ]


def methods_chosen(data: dict, dataset: str, lam: float) -> dict[str, int]:
    """Build methods the selector picked at ``lam``, summed over the
    reported indices and the seeds (Figure 9's annotation)."""
    chosen: dict[str, int] = {}
    for cells in data.values():
        for name in REPORTED_INDICES:
            used = get(cells, dataset, f"{name}-F", "methods_used", lam=lam) or {}
            for method, count in used.items():
                chosen[method] = chosen.get(method, 0) + count
    return chosen


def rebuild_counts(data: dict) -> dict[str, dict[str, int]]:
    """``{label: {ratio: seeds that rebuilt after it}}`` (Figure 15's annotation)."""
    cells = _by_ratio(data, "", "rebuilt", "").cells
    return {
        label: {col: int(sum(values)) for col, values in row.items() if sum(values)}
        for (label,), row in cells.items()
    }


# ---- The paper's shapes ----
def shape_failures(data: dict[int, dict[tuple, dict]]) -> list[str]:
    """The shape assertions of Section VII, made on the medians over the
    seeds of a complete table; returns those that do not hold.  Bounds are
    loose by design: measured speedups are noisy at small scale."""
    t = tables(data)
    failures: list[str] = []

    def check(ok, message: str) -> None:
        if not ok:
            failures.append(message)

    def series(table: str, row) -> list[float]:
        return [t[table].med(row, col) for col in t[table].cols]

    # Figure 6: the FFN learns the build-time ordering.
    ffn = series("fig6b", "FFN")
    check(ffn[-1] >= 0.5 and np.mean(ffn) >= 0.3, f"fig6: FFN accuracy {ffn}")

    # Figure 7: SP/MR own the fast-build end, CL is the costliest reduction,
    # reduced-set query times stay within 2x of OG's.
    fig7 = t["fig7"]

    def sweep(index, method, col="build (s)"):
        return [fig7.med(row, col) for row in fig7.cells if row[:2] == (index, method)]

    for i in LEARNED_INDICES:
        if i != "LISA":  # which has no CL sweep
            check(min(sweep(i, "SP")) < sweep(i, "OG")[0], f"fig7: {i} SP not faster than OG")
            check(min(sweep(i, "MR")) < sweep(i, "OG")[0], f"fig7: {i} MR not faster than OG")
            check(max(sweep(i, "CL")) > min(sweep(i, "SP")), f"fig7: {i} CL not costlier than SP")
        reduced = [fig7.med(row, "point query (us)") for row in fig7.cells
                   if row[0] == i and row[1] != "OG"]
        check(np.median(reduced) < 2.0 * sweep(i, "OG", "point query (us)")[0] + 5.0,
              f"fig7: {i} reduced-set query times beyond 2x OG")

    # Table I: MR trains nothing online, OG the most; |Error| keeps its
    # magnitude; CL's extra cost dominates.
    m = t["table1"].med
    check(m("MR", "T (s)") == 0.0, "table1: MR trains online")
    for method in ("SP", "CL", "MR", "RS", "RL"):
        check(m(method, "T (s)") < m("OG", "T (s)"), f"table1: {method} T >= OG")
        check(m(method, "|D_S|") < m("OG", "|D_S|"), f"table1: {method} |D_S| >= OG")
        check(m(method, "|Error|") < 4 * m("OG", "|Error|") + 100,
              f"table1: {method} |Error| beyond 4x OG")
    check(m("CL", "extra (s)") >= max(m("SP", "extra (s)"), m("RS", "extra (s)")),
          "table1: CL extra cost does not dominate SP/RS")

    # Table II: ELSI beats OG and, in total, is no slower than Rand; CL/RL
    # NA only for LISA; point query times in a narrow band.
    m = t["table2_build"].med
    indices = [i for (i,) in t["table2_build"].cells]
    for i in indices:
        check(m(i, "ELSI") < m(i, "OG"), f"table2: {i} ELSI >= OG")
        nas = [c for c in TABLE2_COLUMNS if m(i, c) is None]
        check(nas == (["CL", "RL"] if i == "LISA" else []), f"table2: {i} NA cells {nas}")
        us = [v for v in series("table2_query", i) if v is not None]
        check(max(us) < 5 * min(us) + 10, f"table2: {i} query band wider than 5x")
    check(sum(m(i, "ELSI") for i in indices) < 1.5 * sum(m(i, "Rand") for i in indices),
          "table2: ELSI builds slower than Rand")

    # Figure 8: -F builds faster than no-ELSI, at the traditional level.
    m = t["fig8"].med
    for d in DATASET_NAMES:
        slowest = max(m(d, i) for i in TRADITIONAL_INDICES)
        for i in REPORTED_INDICES:
            check(m(d, f"{i}-F") < m(d, i), f"fig8: {i}-F not faster than {i} on {d}")
            check(m(d, f"{i}-F") < 10 * slowest, f"fig8: {i}-F beyond 10x traditional on {d}")
    speedup = np.median(mean_ratios(data, "build_seconds", invert=True))
    check(speedup > 3.0, f"fig8: mean ELSI build speedup {speedup:.1f} <= 3")

    # Figure 9: builds fall (weakly) with lambda, end below the same index's
    # OG build, and MR is chosen at lambda = 1.
    for d in ("Skewed", "OSM1"):
        for label in F_LABELS:
            seconds = series(f"fig9_{d}", label)
            check(np.mean(seconds[-2:]) <= np.mean(seconds[:2]) * 1.5,
                  f"fig9: {label} builds slower at large lambda on {d}")
            check(seconds[-1] < m(d, label[:-2]), f"fig9: {label} at lam=1 not below OG on {d}")
        check(methods_chosen(data, d, 1.0).get("MR", 0) >= 1, f"fig9: MR unused at lam=1 on {d}")

    # Figures 10 / 14: ELSI leaves point and kNN times essentially unchanged.
    for field, bound in (("point_us", 2.0), ("knn_us", 2.5)):
        ratio = np.median(mean_ratios(data, field))
        check(ratio < bound, f"mean -F / no-ELSI {field} ratio {ratio:.2f} >= {bound}")

    # Figures 11 / 13(a): query times grow only slowly with lambda — the
    # large-lambda half against the small-lambda half by their medians, as
    # one lambda can draw a method whose model scans 10x wider at smoke scale.
    for table, factor, slack in (("fig11_OSM1", 2.5, 10), ("fig11_TPCH", 2.5, 10),
                                 ("fig13a", 3.0, 50)):
        for label in F_LABELS:
            us = series(table, label)
            check(np.median(us[3:]) < factor * np.median(us[:3]) + slack,
                  f"{table}: {label} grows with lambda {us}")

    # Figure 12: ML exact, RSMI-F / LISA-F recall high, -F times within 4x.
    m, recall = t["fig12a"].med, t["fig12b"].med
    for d in DATASET_NAMES:
        check(recall(d, "ML") == 1.0 and recall(d, "ML-F") == 1.0, f"fig12: ML inexact on {d}")
        check(min(recall(d, "RSMI-F"), recall(d, "LISA-F")) > 0.85, f"fig12: -F recall on {d}")
        for i in REPORTED_INDICES:
            check(m(d, f"{i}-F") < 4.0 * m(d, i), f"fig12: {i}-F window time beyond 4x on {d}")

    # Figure 13(b): results grow with window size, the output-sensitive RR*
    # slows down, and -F times grow no faster than ~4x RR*'s (they may be
    # flat at small n, where error-bound scans dominate).
    growth = {}
    for (label,) in t["fig13b"].cells:
        counts, us = series("fig13b_results", label), series("fig13b", label)
        check(counts[-1] > counts[0], f"fig13b: result counts do not grow for {label}")
        growth[label] = us[-1] / us[0]
    check(growth["RR*"] > 1.0, "fig13b: RR* does not slow down with window size")
    for label in F_LABELS:
        check(growth[label] < 4.0 * growth["RR*"] + 4.0, f"fig13b: {label} growth {growth}")

    # Figure 14: traditional and ML-F exact, bounded recall drop otherwise.
    recall = t["fig14b"].med
    for d in DATASET_NAMES:
        check(all(recall(d, i) == 1.0 for i in TRADITIONAL_INDICES),
              f"fig14: a traditional index is inexact on {d}")
        check(recall(d, "ML-F") > 0.99, f"fig14: ML-F recall on {d}")
        for i in ("RSMI", "LISA"):
            check(recall(d, i) - recall(d, f"{i}-F") < 0.2, f"fig14: {i}-F recall drop on {d}")

    # Figures 15 / 16: only -R rebuilds and it pays off; RR* stays exact.
    rebuilt = rebuild_counts(data)
    check(not any(n for label, n in rebuilt.items() if not label.endswith("-R")),
          f"fig15: a variant without rebuilds rebuilt {rebuilt}")
    check(any(rebuilt.values()), "fig15: no -R variant ever rebuilt")
    check(min(series("fig16b", "RR*")) == 1.0, "fig16: RR* is inexact")
    for i in REPORTED_INDICES:
        check(series("fig15b", f"{i}-R")[-1] < 1.6 * series("fig15b", f"{i}-F")[-1],
              f"fig15: {i}-R final point time beyond 1.6x its -F twin")
        final = series("fig16b", f"{i}-R")[-1]
        check(final >= series("fig16b", f"{i}-F")[-1] - 0.05 and final > 0.85,
              f"fig16: {i}-R final recall {final}")
    return failures


# ---- EXPERIMENTS.md ----
TEMPLATE = Path(__file__).with_name("EXPERIMENTS.template.md")


def spread(values, fmt: str = "{:.2f}") -> str:
    """``median [min–max]`` over the seeds."""
    mid, low, high = (fmt.format(v) for v in (np.median(values), min(values), max(values)))
    return f"{mid} [{low}–{high}]"


def verdict(reproduced: bool, partially: bool = False) -> str:
    return "reproduced" if reproduced else "partially reproduced" if partially else "not reproduced"


def claims(data: dict[int, dict[tuple, dict]]) -> list[tuple[str, str]]:
    """(measured, verdict) for the paper's eight headline claims, in
    EXPERIMENTS.md order; every ratio is formed per seed, then summarised."""
    t = tables(data)
    build = lambda cells, d, label: get(cells, d, label, "build_seconds")  # noqa: E731

    # 1. ELSI cuts learned-index build times by 1-2 orders of magnitude.
    speedups = mean_ratios(data, "build_seconds", invert=True)
    out = [(f"mean **{spread(speedups, '{:.1f}')}×** across 6 data sets × 3 indices",
            verdict(np.median(speedups) >= 10, np.median(speedups) > 3))]

    # 2. -F builds land at the traditional indices' level.
    def count(learned, pick) -> list[int]:  # per seed, -F builds below pick(traditional builds)
        return [
            sum(build(cells, d, f"{i}-F") < pick(build(cells, d, x) for x in TRADITIONAL_INDICES)
                for d in DATASET_NAMES for i in learned)
            for cells in data.values()
        ]

    below_slowest, lisa_fastest = count(REPORTED_INDICES, max), count(("LISA",), min)
    out.append((f"-F builds below the slowest traditional build in "
                f"{spread(below_slowest, '{:.0f}')} of 18 cells; LISA-F below all four on "
                f"{spread(lisa_fastest, '{:.0f}')} of 6 data sets",
                verdict(np.median(below_slowest) == 18 and np.median(lisa_fastest) >= 3,
                        np.median(below_slowest) >= 12)))

    # 3 / 4. Point and kNN times are unchanged by ELSI on average.
    for field in ("point_us", "knn_us"):
        ratios = mean_ratios(data, field)
        out.append((f"mean -F / no-ELSI ratio **{spread(ratios)}**",
                    verdict(np.median(ratios) <= 1.05, np.median(ratios) <= 1.25)))

    # 5. MR at large lambda, query-optimised methods at small lambda (Fig. 9).
    def share(lam, methods):
        chosen = [methods_chosen(data, d, lam) for d in ("Skewed", "OSM1")]
        total = sum(sum(c.values()) for c in chosen)
        return sum(c.get(m, 0) for c in chosen for m in methods) / max(total, 1)

    mr = {lam: share(lam, ("MR",)) for lam in LAMS}
    majority = min((lam for lam in LAMS if mr[lam] > 0.5), default=None)
    out.append(("MR share of the models built: "
                + ", ".join(f"λ={lam}: {mr[lam]:.0%}" for lam in LAMS)
                + f"; RS/RL/OG share at λ=0: {share(0.0, ('RS', 'RL', 'OG')):.0%}",
                verdict(majority is not None and majority <= 0.8
                        and share(0.0, ("RS", "RL", "OG")) > 0, mr[1.0] > 0.5)
                + (f", MR majority from λ={majority}" if majority not in (None, 0.8) else "")))

    # 6. The learned selector beats Rand on build time without query loss.
    builds, queries = t["table2_build"], t["table2_query"]
    indices = [i for (i,) in builds.cells]
    build_ratio = (sum(builds.values(i, "Rand") for i in indices)
                   / sum(builds.values(i, "ELSI") for i in indices))
    query_ratio = np.mean([queries.values(i, "ELSI") / queries.values(i, "Rand")
                           for i in indices], axis=0)
    out.append((f"Rand / ELSI build time summed over the four indices "
                f"**{spread(build_ratio, '{:.1f}')}×**; ELSI / Rand point-query ratio "
                f"{spread(query_ratio)}",
                verdict(np.median(build_ratio) > 1 and np.median(query_ratio) <= 1.05,
                        np.median(build_ratio) > 1)))

    # 7. Rebuilds keep post-insert query times low (Fig. 15).
    fig15b = t["fig15b"]
    last = fig15b.cols[-1]
    change = {i: (fig15b.values(f"{i}-R", last) / fig15b.values(f"{i}-F", last) - 1) * 100
              for i in REPORTED_INDICES}
    lower = [i for i in REPORTED_INDICES if np.median(change[i]) < 0]
    out.append((f"-R vs -F point-query time at {last} inserts: "
                + ", ".join(f"{i}-R {spread(c, '{:+.0f}')} %" for i, c in change.items()),
                verdict({"ML", "RSMI"} <= set(lower), bool(lower))))

    # 8. Selector accuracy ~0.8+, hardest near lambda ~0.6 (Fig. 6).
    ffn = {lam: t["fig6b"].med("FFN", f"lam={lam}") for lam in LAMS}
    hardest = min(ffn, key=ffn.get)
    out.append((f"FFN held-out accuracy {min(ffn.values()):.2f}–{max(ffn.values()):.2f} over λ "
                f"(median over seeds); hardest at λ={hardest}",
                verdict(max(ffn.values()) >= 0.8 and 0.4 <= hardest <= 0.8,
                        max(ffn.values()) >= 0.8)))
    return out


def render_report(rows: list[dict]) -> str:
    """EXPERIMENTS.md for ``rows`` (a complete rows file)."""
    data = by_seed(rows)
    stamps = [row["stamp"] for row in rows if "stamp" in row]
    scale = stamps[0]["scale"]
    failures = shape_failures(data)
    fields = {name: table.text() for name, table in tables(data).items()}
    for i, (measured, result) in enumerate(claims(data), 1):
        fields[f"claim{i}"], fields[f"verdict{i}"] = measured, result
    fields.update(
        stamps="\n".join(
            f"- commit `{s['commit']}`, {s['date']}, host {s['host']}, "
            f"Python {s['python']}, NumPy {s['numpy']}" for s in stamps
        ),
        scale=scale["name"],
        n=f"{scale['n']:,}",
        epochs=scale["train_epochs"],
        seeds=", ".join(str(seed) for seed in data),
        n_cells=sum(len(cells) for cells in data.values()),
        methods_chosen="\n".join(
            f"{d}, lam={lam}: {methods_chosen(data, d, lam)}"
            for d in ("Skewed", "OSM1") for lam in LAMS
        ),
        rebuilds="\n".join(f"{label}: {at}" for label, at in rebuild_counts(data).items() if at),
        window_ratio=spread(mean_ratios(data, "window_us")),
        shapes="every shape check holds." if not failures
        else "shape checks that do NOT hold:\n" + "\n".join(f"- {f}" for f in failures),
    )
    return Template(TEMPLATE.read_text()).substitute(fields)
