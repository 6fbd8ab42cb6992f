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

import itertools

import numpy as np

from repro.indices.base import ModelBuilder
from repro.indices.mapsort import MapAndSortIndex
from repro.obs.trace import span as _span
from repro.perf.batching import merge_ranges

__all__ = ["LISAIndex"]


class LISAIndex(MapAndSortIndex):
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

    #: LISA's mapping is derived from D (the quantile grid), so build
    #: methods that synthesise new points cannot be used: no ``map_fn``.
    BUILDER_MAY_MAP = False

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
        #: Pages are the scan unit: every scan is widened to whole shards.
        self.scan_page = shard_size
        self._boundaries: list[np.ndarray] | None = None  # per-axis cell edges
        self._weights: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def _fit_mapping(self, points: np.ndarray) -> None:
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
        self._check_built()
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        cells = self._cell_indices(pts)
        d = pts.shape[1]
        # Row-major cell id (dimension 0 is the most significant digit).
        cell_id = np.zeros(len(pts), dtype=np.float64)
        for dim in range(d):
            cell_id = cell_id * self.grid_size + cells[:, dim]
        return cell_id + self._in_cell_offset(pts, cells)

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

    def _mapping_state(self) -> dict:
        return {"boundaries": self._boundaries, "weights": self._weights}

    def _restore_mapping(self, state: dict) -> None:
        self._boundaries = state["boundaries"]
        self._weights = state["weights"]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def window_plan(self, win_lo: np.ndarray, win_hi: np.ndarray):
        """Approximate (FFN shard predictor, see module docs).

        A window covers a box of grid cells.  Each row of it along the last
        axis is contiguous in cell-ID order, so it is one mapped-value
        interval ``[first, last + 1)`` (offsets live in ``[0, 1)`` per
        cell), whose scan boundaries come from the shard predictor: every
        row's edges in two batched forward passes, one per edge.  Ranges
        are shard-aligned, and each window's are merged so no row is
        scanned (or reported) twice — in one merge for the whole batch,
        each window's ranks offset past the previous window's.
        """
        g = self.grid_size
        cell_lo = np.clip(self._cell_indices(win_lo), 0, g - 1).tolist()
        cell_hi = np.clip(self._cell_indices(win_hi), 0, g - 1).tolist()
        first: list[float] = []
        last: list[float] = []
        owner: list[int] = []
        for wi, (lo_cell, hi_cell) in enumerate(zip(cell_lo, cell_hi)):
            leading = map(range, lo_cell[:-1], [c + 1 for c in hi_cell[:-1]])
            for prefix in itertools.product(*leading):
                row = 0  # the row-major ID of the row's leading cells
                for c in prefix:
                    row = row * g + c
                first.append(float(row * g + lo_cell[-1]))
                last.append(float(row * g + hi_cell[-1]))
                owner.append(wi)
        with _span("query.model_predict", index=self.name, queries=2 * len(owner)):
            lo, _ = self.run.model.search_ranges(np.array(first))
            _, hi = self.run.model.search_ranges(np.array(last) + 1.0 - 1e-9)
        self.query_stats.model_invocations += 2 * len(owner)
        lo, hi = self.run.scan_bounds(lo, hi)
        stride = len(self.run.store) + 1  # past any rank
        offset = np.array(owner) * stride
        lo, hi = merge_ranges(lo + offset, hi + offset)
        return self._one_run(lo % stride, hi % stride, lo // stride)
