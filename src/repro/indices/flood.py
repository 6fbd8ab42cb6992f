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

from repro.indices.base import LearnedSpatialIndex, ModelBuilder, TrainedModel
from repro.ml.ffn import FFN
from repro.obs.query_obs import record_range_widths
from repro.obs.trace import span as _span
from repro.perf.batching import (
    batch_point_membership,
    batch_window_refine,
    cast_boundaries,
)
from repro.perf.fused_infer import FusedInferenceEngine
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
        self._stores: list[BlockStore | None] = []
        self._models: list[TrainedModel | None] = []
        #: Fused batch-prediction engine over the column models (None when
        #: fusion was rejected, e.g. a single populated column).
        self._engine: FusedInferenceEngine | None = None
        self._col_to_midx: np.ndarray | None = None

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
        self._stores = []
        for c in range(self.n_columns):
            members = pts[columns == c]
            if len(members) == 0:
                self._stores.append(None)
                continue
            started = time.perf_counter()
            order = np.argsort(members[:, 1], kind="stable")
            sorted_pts = members[order]
            # Column keys are stored in the configured key dtype; query-side
            # y values pass through the same monotone cast, and the y-CDF
            # models measure their bounds over these cast keys.
            keys = sorted_pts[:, 1].astype(self.key_dtype)
            self._stores.append(
                BlockStore(sorted_pts, keys, block_size=self.block_size)
            )
            self.build_stats.prepare_seconds += time.perf_counter() - started
        partitions = [
            (store.keys, store.points) for store in self._stores if store is not None
        ]
        models = iter(
            self.builder.build_models(partitions, self.build_stats, map_fn=None)
        )
        self._models = [
            None if store is None else next(models) for store in self._stores
        ]
        if getattr(self.builder, "dtype", "float64") == "float32":
            # Column routing is a searchsorted over float64 edges, so the
            # precision drop only touches the y-CDF models; re-measuring
            # their bounds keeps predict-and-scan exact under float32.
            for store, model in zip(self._stores, self._models):
                if model is not None and isinstance(model.net, FFN):
                    model.net.astype(np.float32)
                    assert store is not None
                    model.measure_error_bounds(store.keys)
        self._fuse_columns()
        return self

    def _fuse_columns(self) -> "FusedInferenceEngine | None":
        """Stack the column models into one fused batch-prediction engine.

        Called at the end of :meth:`build` and of :meth:`_restore_structure`
        (the engine is derived state, never saved).  Batch queries
        touching many columns then cost one grouped einsum per layer
        instead of one FFN forward pass per visited column.
        """
        self._engine = None
        self._col_to_midx = None
        members: list[TrainedModel] = []
        member_keys: list[np.ndarray] = []
        col_to_midx = np.full(self.n_columns, -1, dtype=np.int64)
        for c, (store, model) in enumerate(zip(self._stores, self._models)):
            if store is None or model is None:
                continue
            col_to_midx[c] = len(members)
            members.append(model)
            member_keys.append(store.keys)
        engine = FusedInferenceEngine.try_build(
            members,
            member_keys=member_keys,
            dtype=getattr(self.builder, "dtype", "float64"),
            context="flood",
        )
        if engine is not None:
            self._engine = engine
            self._col_to_midx = col_to_midx
        return engine

    def _structure_state(self) -> dict:
        return {
            "column_edges": self._column_edges,
            "columns": [
                None
                if store is None
                else {"store": store.state_dict(), "model": model.state_dict()}
                for store, model in zip(self._stores, self._models)
            ],
        }

    def _restore_structure(self, state: dict) -> np.ndarray:
        self._column_edges = state["column_edges"]
        columns = state["columns"]
        self._stores = [c and BlockStore.from_state(c["store"]) for c in columns]
        self._models = [c and TrainedModel.from_state(c["model"]) for c in columns]
        self._fuse_columns()
        return next(store.keys for store in self._stores if store is not None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def point_queries(self, points: np.ndarray) -> np.ndarray:
        """Vectorised batch lookup: queries grouped by column, one model
        forward pass and one fused range-gather per visited column."""
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
            all_lo = all_hi = None
            if self._engine is not None and self._col_to_midx is not None:
                # One grouped forward pass for every visited column at once;
                # rows landing in an empty column keep midx == -1 and are
                # answered False without touching the engine.
                midx = self._col_to_midx[columns]
                valid = midx >= 0
                all_lo = np.zeros(len(pts), dtype=np.int64)
                all_hi = np.zeros(len(pts), dtype=np.int64)
                if valid.any():
                    with _span(
                        "query.model_predict", index=self.name, queries=int(valid.sum())
                    ):
                        all_lo[valid], all_hi[valid] = self._engine.search_ranges(
                            midx[valid], cast_y[valid]
                        )
            for c in np.unique(columns):
                store = self._stores[c]
                model = self._models[c]
                mask = columns == c
                if store is None or model is None:
                    continue
                member_pts = pts[mask]
                keys = cast_y[mask]
                if all_lo is not None and all_hi is not None:
                    lo, hi = all_lo[mask], all_hi[mask]
                    model.invocations += int(mask.sum())
                else:
                    with _span(
                        "query.model_predict", index=self.name, queries=int(mask.sum())
                    ):
                        lo, hi = model.search_ranges(keys)
                record_range_widths(self.name, lo, hi)
                self.query_stats.model_invocations += int(mask.sum())
                self.query_stats.points_scanned += int(np.maximum(hi - lo, 0).sum())
                with _span("query.refine", index=self.name, queries=int(mask.sum())):
                    out[mask] = batch_point_membership(store, lo, hi, keys, member_pts)
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
                    if self._stores[c] is not None and self._models[c] is not None:
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
                    store = self._stores[c]
                    assert store is not None
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

    def indexed_points(self) -> np.ndarray:
        self._check_built()
        chunks = [s.points for s in self._stores if s is not None]
        return np.vstack(chunks)
