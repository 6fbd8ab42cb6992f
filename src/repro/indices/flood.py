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

from repro.indices.base import LearnedSpatialIndex, ModelBuilder
from repro.indices.run import KeyedRun, ModelSet
from repro.obs.trace import span as _span
from repro.perf.batching import batch_window_refine, cast_boundaries
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
        #: point fell in the column); the populated columns' models (derived,
        #: never saved) and each column's member in them (-1: empty).
        self._columns: list[KeyedRun | None] = []
        self._models: ModelSet | None = None
        self._member_of_column: np.ndarray | None = None

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
        return (cols + offset).astype(self.key_dtype, copy=False)

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
            # Column keys are stored in the configured key dtype; query-side
            # y values pass through the same monotone cast, and the y-CDF
            # models measure their bounds over these cast keys.
            keys = sorted_pts[:, 1].astype(self.key_dtype)
            stores.append(BlockStore(sorted_pts, keys, block_size=self.block_size))
            self.build_stats.prepare_seconds += time.perf_counter() - started
        partitions = [(store.keys, store.points) for store in stores if store is not None]
        fitted = self.builder.build_models(partitions, self.build_stats, map_fn=None)
        # Column routing is a searchsorted over float64 edges, so the
        # builder's precision only touches the y-CDF models.
        for model, (keys, _) in zip(fitted, partitions):
            model.cast(self._model_dtype, keys)
        models = iter(fitted)
        self._columns = [
            None if store is None else KeyedRun(store, next(models)) for store in stores
        ]
        self._gather_models()
        return self

    def runs(self):
        self._check_built()
        return (run for run in self._columns if run is not None)

    def _gather_models(self) -> None:
        """Put the populated columns' models in one :class:`ModelSet`, so a
        batch touching many columns is predicted in one call."""
        populated = [c for c, run in enumerate(self._columns) if run is not None]
        self._member_of_column = np.full(self.n_columns, -1, dtype=np.int64)
        self._member_of_column[populated] = np.arange(len(populated))
        self._models = ModelSet([self._columns[c].model for c in populated])

    def _structure_state(self) -> dict:
        return {
            "column_edges": self._column_edges,
            "columns": [run and run.state_dict() for run in self._columns],
        }

    def _restore_structure(self, state: dict) -> None:
        self._column_edges = state["column_edges"]
        self._columns = [c and KeyedRun.from_state(c) for c in state["columns"]]
        self._gather_models()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def point_queries(self, points: np.ndarray) -> np.ndarray:
        """Vectorised batch lookup: one prediction pass for all visited
        columns, then one fused range-gather per visited column."""
        self._check_built()
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(pts) == 0:
            return np.zeros(0, dtype=bool)
        out = np.zeros(len(pts), dtype=bool)
        self.query_stats.queries += len(pts)
        with _span("query.point_batch", index=self.name, queries=len(pts)):
            columns = self._column_of(pts[:, 0])
            # Cast once for the whole batch: predictions and store searches
            # must both see the key-dtype y values.
            cast_y = pts[:, 1].astype(self.key_dtype, copy=False)
            # One prediction pass for every visited column at once; rows
            # landing in an empty column are answered False without it.
            member = self._member_of_column[columns]
            valid = member >= 0
            lo = np.zeros(len(pts), dtype=np.int64)
            hi = np.zeros(len(pts), dtype=np.int64)
            if valid.any():
                with _span(
                    "query.model_predict", index=self.name, queries=int(valid.sum())
                ):
                    lo[valid], hi[valid] = self._models.search_ranges(
                        member[valid], cast_y[valid]
                    )
            # Group the probes by column once: each visited column's probes
            # become one contiguous slice of ``order``, in batch order.
            order = np.flatnonzero(valid)
            order = order[np.argsort(columns[order], kind="stable")]
            counts = np.bincount(columns[order], minlength=self.n_columns)
            stop = 0
            for c in np.flatnonzero(counts).tolist():
                rows = order[stop : stop + counts[c]]
                stop += counts[c]
                out[rows], scanned = self._columns[c].point_lookup(
                    self.name, cast_y[rows], pts[rows], predicted=(lo[rows], hi[rows])
                )
                self.query_stats.model_invocations += len(rows)
                self.query_stats.points_scanned += scanned
        return out

    def window_queries(self, windows: "list[Rect]") -> list[np.ndarray]:
        """Batch window queries over flattened (window, column) pairs.

        Every window expands to its visited-column pairs.  Per visited
        column, *all* pairs' boundary ranks come from two batched
        ``searchsorted`` calls over the cast key column (exact ranks, no
        model pass, so no ``model_invocations``), and the scan + rectangle
        filter runs through the fused refinement kernel
        (:func:`~repro.perf.batching.batch_window_refine`).  A window's
        rows come back columns ascending.
        """
        self._check_built()
        if not windows:
            return []
        self.query_stats.queries += len(windows)
        results: list[list[np.ndarray]] = [[] for _ in windows]
        with _span("query.window_batch", index=self.name, windows=len(windows)):
            pair_win: list[int] = []
            pair_col: list[int] = []
            for wi, window in enumerate(windows):
                first = int(self._column_of(np.array([window.lo[0]]))[0])
                last = int(self._column_of(np.array([window.hi[0]]))[0])
                for c in range(first, last + 1):
                    if self._columns[c] is not None:
                        pair_win.append(wi)
                        pair_col.append(c)
            if not pair_win:
                return [np.empty((0, w.ndim)) for w in windows]
            wins = np.array(pair_win, dtype=np.int64)
            cols = np.array(pair_col, dtype=np.int64)
            # Boundary y values go through the monotone key-dtype cast: the
            # cast interval brackets a superset of the true candidates over
            # quantised key columns, and the rectangle filter removes the
            # extras.
            y_lo = cast_boundaries(
                np.array([windows[w].lo[1] for w in wins]), self.key_dtype
            )
            y_hi = cast_boundaries(
                np.array([windows[w].hi[1] for w in wins]), self.key_dtype
            )
            rect_lo = np.vstack([windows[w].lo_array for w in wins])
            rect_hi = np.vstack([windows[w].hi_array for w in wins])
            with _span("query.refine", index=self.name, queries=len(wins)):
                for c in np.unique(cols):
                    store = self._columns[c].store
                    sel = np.flatnonzero(cols == c)
                    lo = np.searchsorted(store.keys, y_lo[sel], side="left")
                    hi = np.searchsorted(store.keys, y_hi[sel], side="right")
                    self.query_stats.points_scanned += int(
                        np.maximum(hi - lo, 0).sum()
                    )
                    parts = batch_window_refine(
                        store, lo, hi, rect_lo[sel], rect_hi[sel]
                    )
                    for pair, part in zip(sel, parts):
                        if len(part):
                            results[wins[pair]].append(part)
        return [
            np.vstack(chunks) if chunks else np.empty((0, windows[wi].ndim))
            for wi, chunks in enumerate(results)
        ]
