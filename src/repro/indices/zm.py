"""ZM: the Z-order model index (Wang et al., MDM 2019).

Map-and-sort: points map to Morton (Z-curve) codes and are stored in code
order.  Predict-and-scan: a learned CDF (an :class:`~repro.indices.rmi.RMIModel`)
predicts a code's storage address, and a bounded scan completes the lookup.

Window queries are exact: every point inside window ``[lo, hi]`` has a
Morton code within ``[z(lo), z(hi)]``, so scanning that code interval and
filtering by the rectangle cannot miss results.  The scan boundaries are
the corner codes' exact ranks in the sorted key column (``searchsorted``):
corner codes are usually not indexed keys, where the empirical error
bounds guarantee nothing, so a model pass could only hint at the rank the
binary search finds anyway.
"""

from __future__ import annotations

import time

import numpy as np

from repro.indices.base import LearnedSpatialIndex, ModelBuilder
from repro.indices.rmi import RMIModel
from repro.obs.query_obs import record_range_widths
from repro.obs.trace import span as _span
from repro.perf.batching import batch_point_membership, batch_window_refine
from repro.spatial.rect import Rect
from repro.spatial.zcurve import zvalues
from repro.storage.blocks import BlockStore

__all__ = ["ZMIndex"]


class ZMIndex(LearnedSpatialIndex):
    """The ZM learned spatial index.

    Parameters
    ----------
    builder:
        Model builder (OG by default; pass ELSI's build processor to get
        the accelerated build).
    bits:
        Morton code resolution per dimension.
    branching:
        Stage-2 fan-out of the RMI (1 = a single model).
    """

    name = "ZM"

    def __init__(
        self,
        builder: ModelBuilder | None = None,
        block_size: int = 100,
        bits: int = 16,
        branching: int = 8,
    ) -> None:
        super().__init__(builder, block_size)
        self.bits = bits
        self.branching = branching
        self.store: BlockStore | None = None
        self.model: RMIModel | None = None
        #: Built-in insertions since the build; scan ranges widen by this
        #: count to keep predict-and-scan correct without retraining.
        self._native_inserts = 0

    # ------------------------------------------------------------------
    def map(self, points: np.ndarray) -> np.ndarray:
        """The base index's ``map()``: Morton codes as float keys.

        Codes are cast to the configured key dtype here, so build-time
        store keys and query-time probe keys go through the identical
        (monotone) quantisation — equal coordinates always produce
        bit-equal keys, and error bounds measured over the cast keys keep
        predict-and-scan exact.
        """
        self._check_built()
        assert self.bounds is not None
        return zvalues(points, self.bounds, self.bits, dtype=self.key_dtype)

    def build(self, points: np.ndarray) -> "ZMIndex":
        pts = self._prepare_points(points)
        started = time.perf_counter()
        self.bounds = Rect.bounding(pts)
        self.n_points = len(pts)
        keys = zvalues(pts, self.bounds, self.bits, dtype=self.key_dtype)
        self.store = BlockStore(pts, keys, block_size=self.block_size)
        self.build_stats.prepare_seconds += time.perf_counter() - started

        self.model = RMIModel(self.builder, branching=self.branching)
        self.model.fit(
            self.store.keys, self.store.points, self.build_stats, map_fn=self.map
        )
        return self

    # ------------------------------------------------------------------
    def insert(self, point: np.ndarray) -> None:
        self._check_built()
        assert self.store is not None
        q = np.asarray(point, dtype=np.float64)
        key = float(self.map(q[None, :])[0])
        self.store.insert(q, key)
        self._native_inserts += 1
        self.n_points += 1

    def point_queries(self, points: np.ndarray) -> np.ndarray:
        """Vectorised batch lookup: one model forward pass for all keys and
        one fused gather per group of overlapping scan ranges."""
        self._check_built()
        assert self.store is not None and self.model is not None
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(pts) == 0:
            return np.zeros(0, dtype=bool)
        with _span("query.point_batch", index=self.name, queries=len(pts)):
            with _span("query.model_predict", index=self.name, queries=len(pts)):
                keys = self.map(pts)
                lo, hi = self.model.search_ranges(keys)
            lo = np.maximum(lo - self._native_inserts, 0)
            hi = np.minimum(hi + self._native_inserts, len(self.store))
            record_range_widths(self.name, lo, hi)
            self.query_stats.queries += len(pts)
            self.query_stats.model_invocations += len(pts)
            self.query_stats.points_scanned += int(np.maximum(hi - lo, 0).sum())
            with _span("query.refine", index=self.name, queries=len(pts)):
                return batch_point_membership(self.store, lo, hi, keys, pts)

    def window_queries(self, windows: "list[Rect]") -> list[np.ndarray]:
        """Vectorised batch window queries.

        Two batched ``searchsorted`` calls over the cast key column give
        every window's exact scan boundaries (no model pass, so no
        ``model_invocations`` are charged), and one fused
        rectangle-refinement kernel filters all windows' scan ranges
        (:func:`~repro.perf.batching.batch_window_refine`).
        """
        self._check_built()
        assert self.store is not None and self.model is not None
        if not windows:
            return []
        with _span("query.window_batch", index=self.name, windows=len(windows)):
            w = len(windows)
            win_lo = np.vstack([win.lo_array for win in windows])
            win_hi = np.vstack([win.hi_array for win in windows])
            z = self.map(np.vstack([win_lo, win_hi]))
            with _span("query.refine", index=self.name, queries=w):
                lo = np.searchsorted(self.store.keys, z[:w], side="left")
                hi = np.searchsorted(self.store.keys, z[w:], side="right")
                record_range_widths(self.name, lo, hi)
                self.query_stats.queries += w
                self.query_stats.points_scanned += int(np.maximum(hi - lo, 0).sum())
                return batch_window_refine(self.store, lo, hi, win_lo, win_hi)

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
        """Worst-model ``err_l + err_u`` (Table I)."""
        self._check_built()
        assert self.model is not None
        return self.model.max_error_width
