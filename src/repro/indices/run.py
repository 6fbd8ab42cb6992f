"""The keyed run: the unit both paradigms of Section III are written on.

Map-and-sort leaves a key-sorted :class:`~repro.storage.blocks.BlockStore`;
predict-and-scan puts a model over it and scans the predicted range.  Every
index is made of such pairs — one under ZM, ML-Index and LISA
(:class:`~repro.indices.mapsort.MapAndSortIndex`), one per leaf of RSMI —
so the pair, the insert count that widens its scans, its point lookup and
its durable state are written here, once.
An index's query plan names runs and rank ranges in them;
:class:`~repro.indices.base.LearnedSpatialIndex` scans them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.indices.base import TrainedModel
from repro.obs.query_obs import record_range_widths
from repro.obs.trace import span as _span
from repro.perf.batching import sorted_point_membership
from repro.storage.blocks import BlockStore

__all__ = ["KeyedRun"]


class KeyedRun:
    """A key-sorted ``store``, the ``model`` fitted over it — anything with
    ``search_ranges(keys) -> (lo, hi)`` over the store's ranks and a
    ``state_dict()``: a :class:`TrainedModel` or an
    :class:`~repro.indices.rmi.RMIModel` — and the ``inserts`` since that
    fit.  Each insert moves a true rank by at most one, so scans widen by
    the count instead of retraining.  ``page`` is the scan unit in rows
    (LISA's shards; 1 = none).
    """

    def __init__(self, store: BlockStore, model, inserts: int = 0, page: int = 1) -> None:
        self.store = store
        self.model = model
        self.inserts = inserts
        self.page = page

    def scan_bounds(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predicted ranges as scanned: widened by the insert count, grown
        to whole pages and clamped to the store — inserts near rank 0 would
        otherwise push ``lo`` negative, harmless for the scan, wrong for
        the accounting.  With no inserts a predicted range is in the store
        already, and only pages can push ``hi`` past its end."""
        if self.inserts:
            lo, hi = np.maximum(lo - self.inserts, 0), hi + self.inserts
        if self.page > 1:
            lo = (lo // self.page) * self.page
            hi = -(-hi // self.page) * self.page
        return lo, np.minimum(hi, len(self.store))

    def point_lookup(
        self, index_name: str, keys: np.ndarray, points: np.ndarray, atol: float = 0.0
    ) -> tuple[np.ndarray, int]:
        """Predict-and-scan for a batch: membership per ``(key, point)`` row
        and the rows scanned (the ``points_scanned`` charge).

        A batch of more than one probe is put in key order once (the
        default, unstable ``argsort``: the order of equal keys cannot
        change an answer), so routing, prediction, the range widening and
        the membership kernel all run on monotone keys, and the answers
        are scattered back once.  Every step is per probe, and the merged
        ranges charged to ``block_reads`` are a union, so the order changes
        no answer and no charge (docs/performance.md, "Key-ordered point
        path").  A batch of one is not sorted."""
        b = len(keys)
        if b > 1:
            order = np.argsort(keys)
            keys, points = keys.take(order), points.take(order, axis=0)
        with _span("query.model_predict", index=index_name, queries=b):
            predicted = self.model.search_ranges(keys)
        lo, hi = self.scan_bounds(*predicted)
        record_range_widths(index_name, lo, hi)
        with _span("query.refine", index=index_name, queries=b):
            found = sorted_point_membership(self.store, lo, hi, keys, points, atol)
        if b > 1:
            scattered = np.empty(b, dtype=bool)
            scattered[order] = found
            found = scattered
        return found, int(np.maximum(hi - lo, 0).sum())

    def insert(self, point: np.ndarray, key: float) -> None:
        """Place ``point`` at its key's sorted position; no retraining."""
        self.store.insert(point, key)
        self.inserts += 1

    def state_dict(self) -> dict:
        """The store and the model; the insert count is the owner's to
        place (index header, RSMI node)."""
        return {"store": self.store.state_dict(), "model": self.model.state_dict()}

    @classmethod
    def from_state(
        cls,
        state: dict,
        load_model: "Callable[[dict], object]" = TrainedModel.from_state,
        inserts: int = 0,
        page: int = 1,
    ) -> "KeyedRun":
        """The run :meth:`state_dict` described.  ``load_model(model_state)``
        rebuilds a model that is more than one :class:`TrainedModel`."""
        store = BlockStore.from_state(state["store"])
        return cls(store, load_model(state["model"]), inserts, page)
