"""The ELSI update processor and rebuild predictor (Section IV-B2).

Updates use the paper's default procedures: inserted points go to a side
list and deletions are recorded as marks, one per deleted copy of a stored
point; queries scan the side list and merge/filter its contents with the
base index's results.  The CDF of the indexed data is snapshotted at build
time; as updates arrive, ``sim(D', D)`` is recomputed so the learned
*rebuild predictor* — an FFN over cardinality, distribution, index depth,
update ratio and CDF change — can decide when to trigger a full rebuild
(the ``to_rebuild`` API).  The predictor runs after every ``f_u`` updates.

Ground truth for the predictor follows Section VII-B2: indices with and
without rebuilds are compared after batches of updates, and the label is 1
when the no-rebuild query time exceeds the with-rebuild time by 10 %.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import ELSIConfig
from repro.indices.base import InsertRefused, LearnedSpatialIndex
from repro.ml.ffn import FFN
from repro.ml.trainer import TrainConfig, train_regressor
from repro.obs.trace import span as _span
from repro.spatial.cdf import ks_distance, uniform_dissimilarity
from repro.spatial.rect import Rect

__all__ = ["RebuildPredictor", "UpdateProcessor", "train_rebuild_predictor"]


class RebuildPredictor:
    """FFN ``C_RB`` mapping update-state features to a rebuild/keep decision.

    Features (Section IV-B2): log10 cardinality (scaled), ``dist(D_U, D)``,
    index depth, update ratio ``|D'|/|D| - 1``, and the CDF change
    ``sim(D', D)``.  Output is regressed to {0, 1}; :meth:`should_rebuild`
    thresholds at 0.5.
    """

    N_FEATURES = 5

    def __init__(self, hidden: int = 32, seed: int = 0) -> None:
        self.net = FFN([self.N_FEATURES, hidden, 1], seed=seed)
        self._fitted = False

    @staticmethod
    def features(
        n: int, dist_u: float, depth: int, update_ratio: float, cdf_sim: float
    ) -> np.ndarray:
        if n < 1:
            raise ValueError(f"cardinality must be >= 1, got {n}")
        return np.array(
            [np.log10(n) / 8.0, dist_u, depth / 16.0, update_ratio, cdf_sim]
        )

    def fit(self, x: np.ndarray, labels: np.ndarray, epochs: int = 1500, seed: int = 0) -> None:
        """Train on feature rows and binary labels."""
        x2 = np.asarray(x, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if x2.ndim != 2 or x2.shape[1] != self.N_FEATURES:
            raise ValueError(f"expected (n, {self.N_FEATURES}) features, got {x2.shape}")
        train_regressor(self.net, x2, y, TrainConfig(epochs=epochs, seed=seed, patience=200))
        self._fitted = True

    def should_rebuild(
        self, n: int, dist_u: float, depth: int, update_ratio: float, cdf_sim: float
    ) -> bool:
        if not self._fitted:
            raise RuntimeError("rebuild predictor is not fitted; call fit() first")
        x = self.features(n, dist_u, depth, update_ratio, cdf_sim)
        return bool(self.net.predict(x[None, :])[0] >= 0.5)


class UpdateProcessor:
    """Default update procedures wrapping a built learned index.

    Parameters
    ----------
    index:
        A built :class:`~repro.indices.base.LearnedSpatialIndex`.
    config:
        Supplies ``f_u`` (updates between predictor invocations).
    predictor:
        Optional trained :class:`RebuildPredictor`; without one,
        ``to_rebuild`` falls back to a CDF-drift heuristic.
    auto_rebuild:
        When True, :meth:`insert`/:meth:`delete` trigger a rebuild as soon
        as the predictor says so (the "-R" indices of Figures 15–16).
    native:
        Route insertions through the index's *built-in* insertion procedure
        instead of the side list (the paper's Figure 15 setting: "LISA and
        RSMI use built-in insertion procedures, and ML uses extra data
        pages").  Built-in inserts degrade query performance structurally,
        which is what the rebuild predictor exists to repair.
    """

    def __init__(
        self,
        index: LearnedSpatialIndex,
        config: ELSIConfig | None = None,
        predictor: RebuildPredictor | None = None,
        auto_rebuild: bool = False,
        native: bool = False,
        index_factory=None,
    ) -> None:
        if index.bounds is None:
            raise ValueError("the wrapped index must be built first")
        self.index = index
        self.config = config or ELSIConfig()
        self.predictor = predictor
        self.auto_rebuild = auto_rebuild
        self.native = native
        self._index_factory = index_factory
        self._base_points = self._snapshot_points(index)
        self._base_keys = np.sort(
            np.asarray(index.map(self._base_points), dtype=np.float64)
        )
        self._inserted: list[np.ndarray] = []
        # Exact-match lookup structure over the side list, playing the role
        # of the paper's binary tree on updated-point IDs (Section IV-B2):
        # point queries hit this map instead of scanning the list.
        self._inserted_count: dict[tuple[float, ...], int] = {}
        #: Deletion marks on stored rows: key -> [copies marked, copies
        #: stored].  One delete marks one copy, as one WAL record logs it.
        self._deleted: dict[tuple[float, ...], list[int]] = {}
        self._updates_since_check = 0
        self._updates_total = 0
        self.rebuilds = 0
        self.last_rebuild_seconds = 0.0

    @staticmethod
    def _snapshot_points(index: LearnedSpatialIndex) -> np.ndarray:
        """All points currently indexed (exact, from the index's storage)."""
        return index.indexed_points()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    @property
    def n_pending(self) -> int:
        """Side-list size (inserted entries currently buffered)."""
        return len(self._inserted)

    @property
    def _marked(self) -> int:
        """Stored copies marked deleted."""
        return sum(marked for marked, _ in self._deleted.values())

    @property
    def n_effective(self) -> int:
        """Current logical cardinality |D'|."""
        base_n = self.index.n_points if self.native else len(self._base_points)
        return base_n - self._marked + len(self._inserted)

    def insert(self, point: np.ndarray) -> None:
        """Add a point — to the side list (default procedure) or through the
        index's built-in insertion when ``native`` is set."""
        p = np.asarray(point, dtype=np.float64)
        key = tuple(float(v) for v in p)
        marks = self._deleted.get(key)
        if marks is not None:
            # Re-inserting a deleted stored point clears one of its marks.
            marks[0] -= 1
            if marks[0] == 0:
                del self._deleted[key]
        elif not (self.native and self._insert_native(p)):
            self._inserted.append(p)
            self._inserted_count[key] = self._inserted_count.get(key, 0) + 1
        self._note_update()

    def _insert_native(self, point: np.ndarray) -> bool:
        """Whether the index's built-in insertion took ``point``; one it
        refuses (it is unchanged then) belongs on the side list."""
        try:
            self.index.insert(point)
        except InsertRefused:
            return False
        return True

    def delete(self, point: np.ndarray) -> bool:
        """Delete one copy of a point — from the side list, else by marking
        one stored copy; returns whether a copy was left to delete."""
        p = np.asarray(point, dtype=np.float64)
        key = tuple(float(v) for v in p)
        if self._inserted_count.get(key, 0) > 0:
            for i, q in enumerate(self._inserted):
                if np.array_equal(q, p):
                    self._inserted.pop(i)
                    break
            self._inserted_count[key] -= 1
            if self._inserted_count[key] == 0:
                del self._inserted_count[key]
            self._note_update()
            return True
        marks = self._deleted.get(key)
        if marks is None:
            stored = _stored_copies(self.index, p)
            if stored == 0:
                return False
            marks = self._deleted[key] = [0, stored]
        if marks[0] == marks[1]:
            return False
        marks[0] += 1
        self._note_update()
        return True

    def _note_update(self) -> None:
        self._updates_since_check += 1
        self._updates_total += 1
        if self._updates_since_check >= self.config.f_u:
            self._updates_since_check = 0
            if self.auto_rebuild and self.to_rebuild():
                self.rebuild()

    # ------------------------------------------------------------------
    # Queries (merge the side list with the base index)
    # ------------------------------------------------------------------
    def _inserted_array(self) -> np.ndarray:
        if not self._inserted:
            d = self.index.bounds.ndim if self.index.bounds else 2
            return np.empty((0, d))
        return np.vstack(self._inserted)

    def _filter_deleted(self, points: np.ndarray) -> np.ndarray:
        """``points`` less one row per deletion mark on its coordinates:
        rows the base returned, each stored copy at most once."""
        if not self._deleted or len(points) == 0:
            return points
        left = {key: marked for key, (marked, _) in self._deleted.items()}
        keep = np.ones(len(points), dtype=bool)
        for i, row in enumerate(points.tolist()):
            key = tuple(row)
            if left.get(key, 0):
                left[key] -= 1
                keep[i] = False
        return points[keep]

    def point_query(self, point: np.ndarray) -> bool:
        return bool(self.point_queries(np.asarray(point)[None, :])[0])

    def point_queries(self, points: np.ndarray) -> np.ndarray:
        """Batch membership merging the side structures with the base
        index's vectorised path (one model forward pass + fused gathers).

        The side-list map and deletion marks decide their points directly;
        only the undecided remainder reaches the base index, as one batch.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.zeros(len(pts), dtype=bool)
        if len(pts) == 0:
            return out
        if not self._deleted and not self._inserted_count:
            return self.index.point_queries(pts)
        undecided: list[int] = []
        for i, p in enumerate(pts):
            key = tuple(float(v) for v in p)
            marks = self._deleted.get(key)
            if self._inserted_count.get(key, 0) > 0:
                out[i] = True
            elif marks is not None:
                out[i] = marks[0] < marks[1]  # a stored copy is unmarked
            else:
                undecided.append(i)
        if undecided:
            rows = np.array(undecided, dtype=np.int64)
            out[rows] = self.index.point_queries(pts[rows])
        return out

    def window_query(self, window: Rect) -> np.ndarray:
        return self.window_queries([window])[0]

    def window_queries(self, windows: list) -> list[np.ndarray]:
        """Batch window queries: the base index answers all windows at once
        (the vectorised corner-prediction path where available), then each
        window's result is deletion-filtered and merged with the side list."""
        if not windows:
            return []
        base_results = self.index.window_queries(windows)
        if not self._deleted and not self._inserted:
            return base_results
        extra = self._inserted_array()
        out: list[np.ndarray] = []
        for window, base in zip(windows, base_results):
            base = self._filter_deleted(base)
            matched = extra[window.contains_points(extra)] if len(extra) else extra
            if len(matched) == 0:
                out.append(base)
            elif len(base) == 0:
                out.append(matched)
            else:
                out.append(np.vstack([base, matched]))
        return out

    def _merge_knn(
        self, q: np.ndarray, base: np.ndarray, extra: np.ndarray, k: int
    ) -> np.ndarray:
        """Rank the base index's (deletion-filtered) answer against the side
        list and keep the k nearest."""
        base = self._filter_deleted(base)
        candidates = [c for c in (base, extra) if len(c)]
        if not candidates:
            d = self.index.bounds.ndim if self.index.bounds else 2
            return np.empty((0, d))
        merged = np.vstack(candidates)
        diff = merged - q
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        order = np.argsort(dist, kind="stable")
        return merged[order[: min(k, len(order))]]

    def knn_query(self, point: np.ndarray, k: int) -> np.ndarray:
        return self.knn_queries(np.asarray(point)[None, :], k)[0]

    def knn_queries(self, points: np.ndarray, k: int) -> list[np.ndarray]:
        """Batch kNN: the base index answers the whole batch at once (the
        vectorised expanding-window path where available), then each
        query's answer is merged with the side list."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(pts) == 0:
            return []
        if not self._deleted and not self._inserted:
            # Nothing to merge: the base answer is already the k nearest,
            # nearest first, which is what _merge_knn would hand back.
            return self.index.knn_queries(pts, k)
        # Ask the base for enough extra neighbours to absorb deletions.
        base_results = self.index.knn_queries(pts, k + self._marked)
        extra = self._inserted_array()
        return [
            self._merge_knn(q, base, extra, k)
            for q, base in zip(pts, base_results)
        ]

    # ------------------------------------------------------------------
    # Rebuild (the to_rebuild / build APIs of Figure 3)
    # ------------------------------------------------------------------
    def current_points(self) -> np.ndarray:
        """The logical data set D' (base minus deletions plus insertions)."""
        base = self._filter_deleted(
            self.index.indexed_points() if self.native else self._base_points
        )
        extra = self._inserted_array()
        if len(extra) == 0:
            return base
        if len(base) == 0:
            return extra
        return np.vstack([base, extra])

    def update_features(self) -> np.ndarray:
        """The rebuild predictor's feature vector for the current state."""
        current = self.current_points()
        keys = np.sort(np.asarray(self.index.map(current), dtype=np.float64))
        dist_u = uniform_dissimilarity(keys, assume_sorted=True)
        cdf_sim = 1.0 - ks_distance(keys, self._base_keys, assume_sorted=True)
        depth = self.index.depth() if hasattr(self.index, "depth") else 1
        n0 = len(self._base_points)
        update_ratio = self._updates_total / max(n0, 1)
        # (n0 is the size at the last (re)build; the ratio resets on rebuild.)
        return RebuildPredictor.features(
            n=max(len(current), 1),
            dist_u=dist_u,
            depth=depth,
            update_ratio=update_ratio,
            cdf_sim=cdf_sim,
        )

    def to_rebuild(self) -> bool:
        """Whether the system recommends a full rebuild now."""
        if self.predictor is not None:
            x = self.update_features()
            return bool(self.predictor.net.predict(x[None, :])[0] >= 0.5)
        # Untrained fallback: rebuild once the CDF drifted or the side list
        # outgrew a tenth of the base data (a simple, Oracle-style rule).
        current = self.current_points()
        keys = np.sort(np.asarray(self.index.map(current), dtype=np.float64))
        drift = ks_distance(keys, self._base_keys, assume_sorted=True)
        return drift > 0.05 or len(self._inserted) > 0.1 * len(self._base_points)

    def fresh_index(self) -> LearnedSpatialIndex:
        """The unbuilt index a rebuild builds into."""
        return (self._index_factory or self.index.unbuilt_copy)()

    def rebuild(self) -> float:
        """Full index rebuild on D' through the build API; returns seconds."""
        points = self.current_points()
        started = time.perf_counter()
        with _span(
            "update.rebuild", n=len(points), pending=len(self._inserted)
        ):
            fresh = self.fresh_index().build(points)
        elapsed = time.perf_counter() - started
        self.index = fresh
        self._base_points = points
        self._base_keys = np.sort(np.asarray(fresh.map(points), dtype=np.float64))
        self._inserted = []
        self._inserted_count = {}
        self._deleted = {}
        self._updates_total = 0
        self._updates_since_check = 0
        self.rebuilds += 1
        self.last_rebuild_seconds = elapsed
        return elapsed


def _stored_copies(index: LearnedSpatialIndex, point: np.ndarray) -> int:
    """How many rows of ``index`` equal ``point`` exactly.  Copies share
    one key, so they sit together in the run the index's point plan names:
    the rows under that key (within ``KEY_ATOL``), whatever the model's
    bounds — exact for every index, RSMI included."""
    runs, run, keys = index.point_plan(point[None, :])
    if run[0] < 0:
        return 0
    store = runs[int(run[0])].store
    lo = np.searchsorted(store.keys, keys[0] - index.KEY_ATOL, side="left")
    hi = np.searchsorted(store.keys, keys[0] + index.KEY_ATOL, side="right")
    return int((store.points[lo:hi] == point).all(axis=1).sum())


def train_rebuild_predictor(
    index_factory,
    config: ELSIConfig | None = None,
    cardinalities: tuple[int, ...] = (2_000, 5_000),
    deltas: tuple[float, ...] = (0.0, 0.4, 0.8),
    insert_fractions: tuple[float, ...] = (0.01, 0.02, 0.04, 0.08, 0.16, 0.32),
    n_queries: int = 150,
    threshold: float = 1.1,
    seed: int = 0,
) -> RebuildPredictor:
    """Generate ground truth and fit the rebuild predictor (Section VII-B2).

    For each (cardinality, distribution) a base index is built; skewed
    batches are inserted at geometrically growing fractions of n, and point
    query times are measured on the aged index versus a freshly rebuilt one.
    The label is 1 (rebuild) when the aged index is ``threshold`` times
    slower.
    """
    from repro.data.controlled import dataset_with_uniform_distance
    from repro.data.generators import skewed

    cfg = config or ELSIConfig()
    features: list[np.ndarray] = []
    labels: list[int] = []
    rng = np.random.default_rng(seed)
    for n in cardinalities:
        for i, delta in enumerate(deltas):
            points = dataset_with_uniform_distance(n, delta, seed=seed + i)
            index = index_factory()
            index.build(points)
            processor = UpdateProcessor(index, cfg)
            inserts = skewed(int(max(insert_fractions) * n) + 1, seed=seed + 100 + i)
            cursor = 0
            for fraction in insert_fractions:
                target = int(fraction * n)
                while cursor < target:
                    processor.insert(inserts[cursor])
                    cursor += 1
                query_ids = rng.integers(0, n, size=min(n_queries, n))
                started = time.perf_counter()
                for qi in query_ids:
                    processor.point_query(points[qi])
                aged = time.perf_counter() - started

                rebuilt = index_factory()
                rebuilt.build(processor.current_points())
                started = time.perf_counter()
                for qi in query_ids:
                    rebuilt.point_query(points[qi])
                fresh = time.perf_counter() - started

                features.append(processor.update_features())
                labels.append(int(aged > threshold * fresh))
    predictor = RebuildPredictor(seed=seed)
    predictor.fit(np.stack(features), np.array(labels), seed=seed)
    return predictor
