"""Experiment infrastructure: scales, the timing rule and text tables.

The paper's experiments run on 10^8-point data sets; this harness scales
every experiment through an :class:`ExperimentScale`, selectable with the
``REPRO_SCALE`` environment variable (``smoke`` / ``default`` / ``large``)
so CI smoke runs and fuller reproductions share one code path.
:func:`timed` is the one timing rule of the experiment grid.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExperimentScale",
    "format_table",
    "timed",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that scale every experiment.

    Attributes
    ----------
    n:
        Data set cardinality (the paper: 1e8+).
    n_point_queries / n_window_queries / n_knn_queries:
        Workload sizes (the paper: all points / 1 000 / 1 000).
    selector_cardinalities / selector_deltas:
        The (10^l..10^u) × dist grid for scorer training (Section VII-B2).
    train_epochs:
        FFN epochs for index models (the paper: 500).
    seeds:
        One full pass over the experiment grid per seed; a seed fixes the
        generated data, the workloads, model initialisation and the
        selector's training grid.
    """

    name: str
    n: int
    n_point_queries: int
    n_window_queries: int
    n_knn_queries: int
    k: int
    selector_cardinalities: tuple[int, ...]
    selector_deltas: tuple[float, ...]
    train_epochs: int
    rl_steps: int
    seeds: tuple[int, ...] = (0,)

    @staticmethod
    def smoke() -> "ExperimentScale":
        """Seconds-scale runs for CI."""
        return ExperimentScale(
            name="smoke",
            n=2_000,
            n_point_queries=200,
            n_window_queries=50,
            n_knn_queries=20,
            k=25,
            selector_cardinalities=(500, 1_000),
            selector_deltas=(0.0, 0.4, 0.8),
            train_epochs=150,
            rl_steps=60,
        )

    @staticmethod
    def default() -> "ExperimentScale":
        """Minutes-scale runs; the benchmark suite's default."""
        return ExperimentScale(
            name="default",
            n=20_000,
            n_point_queries=500,
            n_window_queries=200,
            n_knn_queries=50,
            k=25,
            selector_cardinalities=(500, 1_000, 2_000, 5_000, 10_000),
            selector_deltas=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
            train_epochs=300,
            rl_steps=150,
            seeds=(0, 1, 2),
        )

    @staticmethod
    def large() -> "ExperimentScale":
        """Closer-to-paper runs (hour scale on a laptop)."""
        return ExperimentScale(
            name="large",
            n=100_000,
            n_point_queries=2_000,
            n_window_queries=1_000,
            n_knn_queries=200,
            k=25,
            selector_cardinalities=(1_000, 3_000, 10_000, 30_000, 100_000),
            selector_deltas=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
            train_epochs=500,
            rl_steps=300,
            seeds=(0, 1, 2),
        )

    @staticmethod
    def from_env() -> "ExperimentScale":
        """Scale selected by the ``REPRO_SCALE`` environment variable
        (``smoke`` when it is unset)."""
        name = os.environ.get("REPRO_SCALE", "smoke").lower()
        if name not in ("smoke", "default", "large"):
            raise ValueError(f"REPRO_SCALE must be smoke, default or large, got {name!r}")
        return getattr(ExperimentScale, name)()


def timed(fn, warmup: bool = False, repeats: int = 1):
    """(result of the last call, median seconds of ``repeats`` calls).

    With ``warmup`` one untimed call goes first, so lazy set-up
    (first-call imports, caches) is not charged to the measurement: the
    rule for every query timing.  A build is a single
    cold call.
    """
    if warmup:
        fn()
    seconds = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - started)
    return result, float(np.median(seconds))


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """A fixed-width text table in the style of the paper's tables."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in cells)) if cells else len(headers[c])
        for c in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)
