"""LISA (Li et al., SIGMOD 2020): grid mapping + learned shard prediction.

LISA partitions the data space with a grid derived from the data (per-axis
quantile boundaries — this data dependence is why the CL and RL build
methods do not apply to LISA: they may produce points not in ``D``), maps
each point to a one-dimensional value via a *weighted aggregation of its
coordinates* within its cell, and learns a shard-prediction function from
mapped values to shard IDs.  Points are stored in mapped-value order as
fixed-size pages (shards).

Following Section VII-B1, the shard predictor here is an FFN rather than
LISA's original piecewise-linear functions; the FFN is not monotone, which
"impacts the accuracy of window queries" — reproduced here as sub-100 %
window recall.
"""

from __future__ import annotations

import time

import numpy as np

from repro.indices.base import LearnedSpatialIndex, ModelBuilder
from repro.indices.rmi import RMIModel
from repro.obs.query_obs import record_range_widths
from repro.obs.trace import span as _span
from repro.perf.batching import (
    batch_point_membership,
    batch_window_refine,
    merge_ranges,
)
from repro.spatial.rect import Rect
from repro.storage.blocks import BlockStore

__all__ = ["LISAIndex"]


class LISAIndex(LearnedSpatialIndex):
    """The LISA learned spatial index (2-D).

    Parameters
    ----------
    grid_size:
        Cells per axis of the quantile grid.
    shard_size:
        Points per shard (page); scans are shard-aligned.
    """

    name = "LISA"
    state_params = ("grid_size", "shard_size")

    def __init__(
        self,
        builder: ModelBuilder | None = None,
        block_size: int = 100,
        grid_size: int = 16,
        shard_size: int = 100,
    ) -> None:
        super().__init__(builder, block_size)
        if grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {grid_size}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.grid_size = grid_size
        self.shard_size = shard_size
        self._boundaries: list[np.ndarray] | None = None  # per-axis cell edges
        self._weights: np.ndarray | None = None
        self.store: BlockStore | None = None
        self.model: RMIModel | None = None

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def _fit_grid(self, points: np.ndarray) -> None:
        """Quantile cell boundaries per axis, from the data (LISA's grid)."""
        d = points.shape[1]
        quantiles = np.linspace(0.0, 1.0, self.grid_size + 1)[1:-1]
        self._boundaries = [
            np.quantile(points[:, dim], quantiles) for dim in range(d)
        ]
        # Weighted aggregation: dimension 0 dominates so the mapping is
        # lexicographic-ish within a cell, per LISA's Lebesgue-measure idea.
        raw = np.array([2.0 ** -(dim + 1) for dim in range(d)])
        self._weights = raw / raw.sum()

    def _cell_indices(self, points: np.ndarray) -> np.ndarray:
        """(n, d) integer cell coordinates on the quantile grid."""
        assert self._boundaries is not None
        cols = [
            np.searchsorted(self._boundaries[dim], points[:, dim], side="right")
            for dim in range(points.shape[1])
        ]
        return np.column_stack(cols)

    def map(self, points: np.ndarray) -> np.ndarray:
        """LISA's mapped value: cell ID plus the weighted in-cell offset."""
        if self._boundaries is None or self.bounds is None:
            raise RuntimeError("LISA index is not built yet")
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        cells = self._cell_indices(pts)
        d = pts.shape[1]
        # Row-major cell id (dimension 0 is the most significant digit).
        cell_id = np.zeros(len(pts), dtype=np.float64)
        for dim in range(d):
            cell_id = cell_id * self.grid_size + cells[:, dim]
        offsets = self._in_cell_offset(pts, cells)
        # Cast to the configured key dtype so build-time store keys and
        # query-time probes share one (monotone) quantisation.
        return (cell_id + offsets).astype(self.key_dtype, copy=False)

    def _cell_edges(self, cells: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper coordinate of each point's cell along ``dim``."""
        assert self._boundaries is not None and self.bounds is not None
        edges = np.concatenate(
            [
                [self.bounds.lo[dim] - 1e-9],
                self._boundaries[dim],
                [self.bounds.hi[dim] + 1e-9],
            ]
        )
        idx = np.clip(cells[:, dim], 0, self.grid_size - 1)
        return edges[idx], edges[idx + 1]

    def _in_cell_offset(self, pts: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Weighted aggregation of per-axis fractions within the cell, in [0, 1)."""
        assert self._weights is not None
        offset = np.zeros(len(pts))
        for dim in range(pts.shape[1]):
            lo, hi = self._cell_edges(cells, dim)
            span = np.maximum(hi - lo, 1e-12)
            frac = np.clip((pts[:, dim] - lo) / span, 0.0, 1.0 - 1e-12)
            offset += self._weights[dim] * frac
        return offset

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, points: np.ndarray) -> "LISAIndex":
        pts = self._prepare_points(points)
        started = time.perf_counter()
        self.bounds = Rect.bounding(pts)
        self.n_points = len(pts)
        self._fit_grid(pts)
        keys = self.map(pts)
        self.store = BlockStore(pts, keys, block_size=self.block_size)
        self.build_stats.prepare_seconds += time.perf_counter() - started

        self.model = RMIModel(self.builder, branching=1)
        # LISA's mapping is derived from D (the quantile grid), so build
        # methods that synthesise new points cannot be used: no map_fn.
        self.model.fit(self.store.keys, self.store.points, self.build_stats)
        return self

    def _structure_state(self) -> dict:
        return {
            "boundaries": self._boundaries,
            "weights": self._weights,
            "store": self.store.state_dict(),
            "model": self.model.state_dict(),
        }

    def _restore_structure(self, state: dict) -> np.ndarray:
        self._boundaries = state["boundaries"]
        self._weights = state["weights"]
        self.store = BlockStore.from_state(state["store"])
        self.model = RMIModel.from_state(state["model"], self.builder, self.store.keys)
        return self.store.keys

    def insert(self, point: np.ndarray) -> None:
        self._check_built()
        assert self.store is not None
        q = np.asarray(point, dtype=np.float64)
        key = float(self.map(q)[0])
        self.store.insert(q, key)
        self._native_inserts += 1
        self.n_points += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def point_queries(self, points: np.ndarray) -> np.ndarray:
        """Vectorised batch lookup: one shard-predictor forward pass for all
        mapped values, shard alignment done arithmetically on the whole
        batch, and one fused gather per group of overlapping shard ranges."""
        self._check_built()
        assert self.store is not None and self.model is not None
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(pts) == 0:
            return np.zeros(0, dtype=bool)
        with _span("query.point_batch", index=self.name, queries=len(pts)):
            with _span("query.model_predict", index=self.name, queries=len(pts)):
                keys = self.map(pts)
                lo, hi = self.model.search_ranges(keys)
            # Pages are the scan unit: widen to whole shards, padded by the
            # built-in-insert count to keep scans correct.
            lo = ((lo - self._native_inserts) // self.shard_size) * self.shard_size
            hi = -(-(hi + self._native_inserts) // self.shard_size) * self.shard_size
            lo = np.maximum(lo, 0)
            hi = np.minimum(hi, self.n_points)
            record_range_widths(self.name, lo, hi)
            self.query_stats.queries += len(pts)
            self.query_stats.model_invocations += len(pts)
            self.query_stats.points_scanned += int(np.maximum(hi - lo, 0).sum())
            with _span("query.refine", index=self.name, queries=len(pts)):
                return batch_point_membership(self.store, lo, hi, keys, pts)

    def window_queries(self, windows: "list[Rect]") -> list[np.ndarray]:
        """Vectorised batch window queries (approximate: FFN shard
        predictor, see module docs).

        A window intersects a rectangle of grid cells; each run of cells
        that is contiguous in cell-ID order yields one mapped-value
        interval whose scan boundaries come from the shard predictor.
        Every window's run-edge probes go through two batched forward
        passes (one per edge); ranges are shard-aligned arithmetically over
        the whole batch, merged per window, and refined through the fused
        scan + rectangle kernel
        (:func:`~repro.perf.batching.batch_window_refine`).
        """
        self._check_built()
        assert self.store is not None and self.model is not None
        if not windows:
            return []
        w = len(windows)
        d = windows[0].ndim
        with _span("query.window_batch", index=self.name, windows=w):
            self.query_stats.queries += w
            lo_corners = np.vstack([win.lo_array for win in windows])
            hi_corners = np.vstack([win.hi_array for win in windows])
            cell_lo = np.clip(self._cell_indices(lo_corners), 0, self.grid_size - 1)
            cell_hi = np.clip(self._cell_indices(hi_corners), 0, self.grid_size - 1)
            lo_probes: list[float] = []
            hi_probes: list[float] = []
            probe_owner: list[int] = []
            for wi in range(w):
                leading = [
                    range(cell_lo[wi, dim], cell_hi[wi, dim] + 1)
                    for dim in range(d - 1)
                ]
                for prefix in _product(leading):
                    first = self._row_major((*prefix, int(cell_lo[wi, d - 1])))
                    last = self._row_major((*prefix, int(cell_hi[wi, d - 1])))
                    # Scan the run of cells in full: offsets live in [0, 1)
                    # per cell, so [first, last + 1) covers every candidate.
                    lo_probes.append(first)
                    hi_probes.append(last + 1.0 - 1e-9)
                    probe_owner.append(wi)
            with _span(
                "query.model_predict", index=self.name, queries=2 * len(probe_owner)
            ):
                lo_pred, _ = self.model.search_ranges(np.array(lo_probes))
                _, hi_pred = self.model.search_ranges(np.array(hi_probes))
            self.query_stats.model_invocations += 2 * len(probe_owner)
            # Whole shards, padded by the insert count (as for points).
            lo = (
                (lo_pred - self._native_inserts) // self.shard_size
            ) * self.shard_size
            hi = -(
                -(hi_pred + self._native_inserts) // self.shard_size
            ) * self.shard_size
            lo = np.maximum(lo, 0)
            hi = np.minimum(hi, self.n_points)
            # Merge each window's overlapping ranges so no point is scanned
            # (or reported) twice — shard alignment and error bounds make
            # the per-run ranges overlap.
            owner_arr = np.asarray(probe_owner, dtype=np.int64)
            starts_parts: list[np.ndarray] = []
            ends_parts: list[np.ndarray] = []
            owner_parts: list[np.ndarray] = []
            for wi in range(w):
                sel = owner_arr == wi
                starts, ends = merge_ranges(lo[sel], hi[sel])
                starts_parts.append(starts)
                ends_parts.append(ends)
                owner_parts.append(np.full(len(starts), wi, dtype=np.int64))
            r_lo = np.concatenate(starts_parts)
            r_hi = np.concatenate(ends_parts)
            r_own = np.concatenate(owner_parts)
            self.query_stats.points_scanned += int(np.maximum(r_hi - r_lo, 0).sum())
            with _span("query.refine", index=self.name, queries=w):
                return batch_window_refine(
                    self.store, r_lo, r_hi, lo_corners, hi_corners, owner=r_own
                )

    def _row_major(self, cell: tuple[int, ...]) -> float:
        """Row-major cell ID of integer cell coordinates."""
        cid = 0
        for c in cell:
            cid = cid * self.grid_size + c
        return float(cid)

    def knn_queries(self, points: np.ndarray, k: int) -> list[np.ndarray]:
        return self._knn_by_expanding_window_batch(points, k)

    def _knn_first_sides(self, pts: np.ndarray, k: int) -> np.ndarray:
        assert self.store is not None
        return self._knn_sides_from_store(self.store, pts, k)

    def indexed_points(self) -> np.ndarray:
        """Every indexed point in storage (key) order."""
        self._check_built()
        assert self.store is not None
        return self.store.points

    # ------------------------------------------------------------------
    @property
    def error_width(self) -> int:
        """Model ``err_l + err_u`` (Table I)."""
        self._check_built()
        assert self.model is not None
        return self.model.max_error_width


def _product(ranges: list[range]):
    """Cartesian product of ranges; yields () once when the list is empty."""
    if not ranges:
        yield ()
        return
    for head in ranges[0]:
        for tail in _product(ranges[1:]):
            yield (head, *tail)
