"""Flood (Nathan et al., SIGMOD 2020): a query-aware learned multi-d index.

The paper's conclusion lists "extend ELSI to support query-aware learned
indices such as Flood" as future work; this module is that extension for
the 2-d case.  Flood partitions a d-dimensional space with a grid over
d-1 dimensions and indexes each partition's points by the last dimension
with a learned CDF.  Here: the x-axis is split into ``n_columns``
equal-frequency columns; within a column points are sorted by y and a
model predicts the y-rank.

*Query awareness*: :meth:`tune` picks ``n_columns`` from a sample query
workload by minimising the estimated scan volume — wide windows favour few
columns (fewer per-column fixed costs), selective windows favour many
(tighter scans) — which is Flood's core idea in miniature.

*ELSI integration*: each column model is built through the pluggable
:class:`~repro.indices.base.ModelBuilder`, so ELSI accelerates Flood
builds exactly as it does the paper's four base indices.  Window queries
are exact: within a column the window's y-interval is contiguous in the
sort order, and scan boundaries are its exact ranks (``searchsorted``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.indices.base import LearnedSpatialIndex, ModelBuilder, group_by
from repro.indices.run import KeyedRun
from repro.spatial.rect import Rect
from repro.storage.blocks import BlockStore

__all__ = ["FloodIndex"]


class FloodIndex(LearnedSpatialIndex):
    """A 2-d Flood index: x-columns + learned y-CDF per column.

    Parameters
    ----------
    n_columns:
        Number of x-axis columns (overridden by :meth:`tune`).
    """

    name = "Flood"
    state_params = ("n_columns",)

    def __init__(
        self,
        builder: ModelBuilder | None = None,
        block_size: int = 100,
        n_columns: int = 16,
    ) -> None:
        super().__init__(builder, block_size)
        if n_columns < 1:
            raise ValueError(f"n_columns must be >= 1, got {n_columns}")
        self.n_columns = n_columns
        self._column_edges: np.ndarray | None = None
        #: Per column, its points in y order under a y-CDF model (None: no
        #: point fell in the column).
        self._columns: list[KeyedRun | None] = []

    # ------------------------------------------------------------------
    # Query-aware tuning (Flood's contribution)
    # ------------------------------------------------------------------
    #: Fixed cost of visiting one column, in scanned-row units (model
    #: invocations + boundary search).  This is the knob that makes
    #: column-count tuning a real trade-off: selective windows favour many
    #: columns, wide windows few.
    COLUMN_VISIT_COST = 10.0

    @staticmethod
    def estimate_cost(
        points: np.ndarray, windows: list[Rect], n_columns: int
    ) -> float:
        """Estimated per-query work for a column count.

        Each visited column pays a fixed cost (model invocations + a block
        read) plus the expected rows scanned for the window's y-range.  Few
        columns amortise the fixed cost over wide windows; many columns
        avoid scanning rows outside a selective window's x-range — Flood's
        query-aware trade-off.
        """
        n = len(points)
        edges = np.quantile(points[:, 0], np.linspace(0, 1, n_columns + 1))
        per_column = n / n_columns
        y_sorted = np.sort(points[:, 1])
        total = 0.0
        for window in windows:
            first = int(np.clip(np.searchsorted(edges, window.lo[0], "right") - 1, 0, n_columns - 1))
            last = int(np.clip(np.searchsorted(edges, window.hi[0], "left"), 0, n_columns - 1))
            visited = last - first + 1
            y_lo = np.searchsorted(y_sorted, window.lo[1], "left")
            y_hi = np.searchsorted(y_sorted, window.hi[1], "right")
            y_fraction = (y_hi - y_lo) / max(n, 1)
            total += visited * (FloodIndex.COLUMN_VISIT_COST + per_column * y_fraction)
        return total / max(len(windows), 1)

    @classmethod
    def tune(
        cls,
        points: np.ndarray,
        sample_windows: list[Rect],
        candidates: tuple[int, ...] = (2, 4, 8, 16, 32, 64),
        builder: ModelBuilder | None = None,
        block_size: int = 100,
    ) -> "FloodIndex":
        """Pick the column count minimising estimated cost on the workload
        and return the (unbuilt) tuned index — Flood's query awareness."""
        pts = cls._prepare_points(points)
        if not sample_windows:
            raise ValueError("need at least one sample window to tune")
        best = min(candidates, key=lambda c: cls.estimate_cost(pts, sample_windows, c))
        return cls(builder=builder, block_size=block_size, n_columns=best)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def map(self, points: np.ndarray) -> np.ndarray:
        """Mapped key: column id + normalised y offset (for CDF tracking)."""
        self._check_built()
        assert self._column_edges is not None and self.bounds is not None
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        cols = self._column_of(pts[:, 0])
        y_lo, y_hi = self.bounds.lo[1], self.bounds.hi[1]
        span = max(y_hi - y_lo, 1e-12)
        offset = np.clip((pts[:, 1] - y_lo) / span, 0.0, 1.0 - 1e-12)
        return cols + offset

    def _column_of(self, xs: np.ndarray) -> np.ndarray:
        assert self._column_edges is not None
        inner = self._column_edges[1:-1]
        return np.clip(np.searchsorted(inner, xs, side="right"), 0, self.n_columns - 1)

    def build(self, points: np.ndarray) -> "FloodIndex":
        pts = self._prepare_points(points)
        started = time.perf_counter()
        self.bounds = Rect.bounding(pts)
        self.n_points = len(pts)
        quantiles = np.linspace(0.0, 1.0, self.n_columns + 1)
        self._column_edges = np.quantile(pts[:, 0], quantiles)
        columns = self._column_of(pts[:, 0])
        self.build_stats.prepare_seconds += time.perf_counter() - started

        # Per-column stores are laid out first (cheap sorts), then every
        # column model builds in one ``build_models`` call — Flood's
        # columns are independent partitions.
        stores: list[BlockStore | None] = []
        for c in range(self.n_columns):
            members = pts[columns == c]
            if len(members) == 0:
                stores.append(None)
                continue
            started = time.perf_counter()
            order = np.argsort(members[:, 1], kind="stable")
            sorted_pts = members[order]
            stores.append(
                BlockStore(sorted_pts, sorted_pts[:, 1], block_size=self.block_size)
            )
            self.build_stats.prepare_seconds += time.perf_counter() - started
        partitions = [(store.keys, store.points) for store in stores if store is not None]
        models = iter(self.builder.build_models(partitions, self.build_stats, map_fn=None))
        self._columns = [
            None if store is None else KeyedRun(store, next(models)) for store in stores
        ]
        return self

    def runs(self):
        self._check_built()
        return (run for run in self._columns if run is not None)

    def _structure_state(self) -> dict:
        return {
            "column_edges": self._column_edges,
            "columns": [run and run.state_dict() for run in self._columns],
        }

    def _restore_structure(self, state: dict) -> None:
        self._column_edges = state["column_edges"]
        self._columns = [c and KeyedRun.from_state(c) for c in state["columns"]]

    # ------------------------------------------------------------------
    # Queries: a column is a run
    # ------------------------------------------------------------------
    def _populated(self, columns: np.ndarray) -> np.ndarray:
        """Which of ``columns`` hold points."""
        return np.array([run is not None for run in self._columns])[columns]

    def point_plan(self, pts: np.ndarray):
        """A probe's run is its column (``-1`` if empty: answered False
        without a prediction), its key the y value; the column's own model
        predicts."""
        columns = self._column_of(pts[:, 0])
        run = np.where(self._populated(columns), columns, -1)
        return self._columns, run, pts[:, 1]

    def window_plan(self, win_lo: np.ndarray, win_hi: np.ndarray):
        """Exact: one entry per (window, populated column) pair, window
        major and columns ascending, bounded by the exact ranks of the
        window's y-interval in the column (two batched ``searchsorted``
        calls per visited column, no model pass, so no
        ``model_invocations``)."""
        first = self._column_of(win_lo[:, 0])
        counts = np.maximum(self._column_of(win_hi[:, 0]) - first + 1, 0)
        owner = np.repeat(np.arange(len(win_lo)), counts)
        start = np.cumsum(counts) - counts
        columns = np.arange(len(owner)) - np.repeat(start - first, counts)
        keep = self._populated(columns)
        owner, columns = owner[keep], columns[keep]
        y_lo, y_hi = win_lo[owner, 1], win_hi[owner, 1]
        lo = np.empty(len(owner), dtype=np.int64)
        hi = np.empty(len(owner), dtype=np.int64)
        for c, pairs in group_by(columns, self.n_columns):
            keys = self._columns[c].store.keys
            lo[pairs] = np.searchsorted(keys, y_lo[pairs], side="left")
            hi[pairs] = np.searchsorted(keys, y_hi[pairs], side="right")
        return self._columns, columns, lo, hi, owner
