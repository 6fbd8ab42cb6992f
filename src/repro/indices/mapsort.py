"""The map-and-sort core: one keyed run under one mapping.

ZM, ML-Index and LISA are one procedure around three mappings (Section
III): bound the data, ``map()`` every point to a key, sort the points into
one :class:`~repro.storage.blocks.BlockStore`, fit one
:class:`~repro.indices.rmi.RMIModel` over the key column, answer a point
query by predict-and-scan.  :class:`MapAndSortIndex` is that procedure,
once, over one :class:`~repro.indices.run.KeyedRun`.  A subclass supplies
``map()``, ``window_plan`` (how a rectangle becomes key intervals is the
mapping's business) and whatever the mapping learns from the data
(``_fit_mapping`` / ``_mapping_state`` / ``_restore_mapping``; nothing for
ZM); the rest is inherited.
"""

from __future__ import annotations

import time

import numpy as np

from repro.indices.base import LearnedSpatialIndex, ModelBuilder
from repro.indices.rmi import RMIModel
from repro.indices.run import KeyedRun
from repro.obs.trace import span as _span
from repro.spatial.rect import Rect
from repro.storage.blocks import BlockStore

__all__ = ["MapAndSortIndex"]


class MapAndSortIndex(LearnedSpatialIndex):
    """A learned index over a single key-sorted store."""

    #: Stage-2 fan-out of the RMI (1 = a single model); ZM and ML-Index
    #: take it as a constructor parameter.
    branching = 1

    #: Whether the builder gets ``map()`` to key the points it synthesises
    #: (CL, RL).  False where the mapping is derived from ``D`` itself.
    BUILDER_MAY_MAP = True

    #: Rows per scan unit (1 = none); LISA scans whole shards.
    scan_page = 1

    def __init__(self, builder: ModelBuilder | None = None, block_size: int = 100) -> None:
        super().__init__(builder, block_size)
        self.run: KeyedRun | None = None

    @property
    def store(self) -> BlockStore | None:
        return self.run and self.run.store

    @property
    def model(self) -> RMIModel | None:
        return self.run and self.run.model

    @property
    def _native_inserts(self) -> int:
        """Built-in insertions since the build: the run's count."""
        return self.run.inserts if self.run else 0

    def runs(self):
        self._check_built()
        yield self.run

    # ------------------------------------------------------------------
    # What a mapping may add
    # ------------------------------------------------------------------
    def _fit_mapping(self, points: np.ndarray) -> None:
        """Learn the mapping's data-dependent state (``bounds`` is set)."""

    def _mapping_state(self) -> dict:
        """The fitted mapping's durable state, ahead of store and model in
        the index's state tree."""
        return {}

    def _restore_mapping(self, state: dict) -> None:
        """Take back what :meth:`_mapping_state` wrote."""

    def _check_insert(self, point: np.ndarray, key: float) -> None:
        """Raise :class:`~repro.indices.base.InsertRefused` if storing
        ``point`` at ``key`` would break an invariant the mapping's queries
        rely on.  Called before the store is touched."""

    # ------------------------------------------------------------------
    def build(self, points: np.ndarray) -> "MapAndSortIndex":
        pts = self._prepare_points(points)
        started = time.perf_counter()
        self.bounds = Rect.bounding(pts)
        self.n_points = len(pts)
        self._fit_mapping(pts)
        store = BlockStore(pts, self.map(pts), block_size=self.block_size)
        self.build_stats.prepare_seconds += time.perf_counter() - started

        model = RMIModel(self.builder, branching=self.branching).fit(
            store.keys,
            store.points,
            self.build_stats,
            map_fn=self.map if self.BUILDER_MAY_MAP else None,
        )
        self.run = KeyedRun(store, model, page=self.scan_page)
        return self

    def _structure_state(self) -> dict:
        return {**self._mapping_state(), **self.run.state_dict()}

    def _restore_structure(self, state: dict) -> None:
        self._restore_mapping(state)
        self.run = KeyedRun.from_state(
            state,
            lambda model: RMIModel.from_state(model, self.builder),
            inserts=state["native_inserts"],
            page=self.scan_page,
        )

    def insert(self, point: np.ndarray) -> None:
        self._check_built()
        q = np.asarray(point, dtype=np.float64)
        key = float(self.map(q[None, :])[0])
        self._check_insert(q, key)
        self.run.insert(q, key)
        self.n_points += 1

    def point_plan(self, pts: np.ndarray):
        """Every probe is in the one run, under its mapped key."""
        return [self.run], np.zeros(len(pts), dtype=np.int64), self.map(pts)

    def _one_run(self, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
        """A window plan whose entries are all in the one run."""
        return [self.run], np.zeros(len(lo), dtype=np.int64), lo, hi, owner

    def _knn_first_sides(self, pts: np.ndarray, k: int) -> np.ndarray:
        """First kNN window sides from each query's key-order neighbours
        in the one store (``_store_seed_sides``; all rows when n < 2k), so
        the driver's test passes in round one (given exact windows)."""
        with _span("query.knn_seed", index=self.name, queries=len(pts), k=k):
            return self._store_seed_sides(self.run.store, pts, self.map(pts), k)

    @property
    def error_width(self) -> int:
        """Worst-model ``err_l + err_u`` (Table I)."""
        self._check_built()
        return self.run.model.max_error_width
