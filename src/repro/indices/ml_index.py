"""ML-Index (Davitkova et al., EDBT 2020): iDistance keys + learned CDF.

Map-and-sort: each point maps to ``j * c + dist(p, o_j)`` for its nearest
reference point ``o_j`` (the iDistance transform), and points are stored in
key order.  Predict-and-scan: an RMI predicts the storage address.

ML-Index answers window and kNN queries *exactly* (the paper: "By design,
ML offers accurate results"): a window is circumscribed by a ball, the
iDistance annulus filter yields one candidate key interval per reference
partition, and each interval is scanned between its exact boundary ranks
(model-predicted and gallop-refined for windows, ``searchsorted`` for the
batched kNN rounds).
"""

from __future__ import annotations

import numpy as np

from repro.indices.base import InsertRefused, ModelBuilder
from repro.indices.mapsort import MapAndSortIndex
from repro.perf.batching import cast_boundaries, merge_ranges
from repro.spatial.idistance import IDistanceMapping
from repro.spatial.rect import Rect

__all__ = ["MLIndex", "locate_rank"]


def locate_rank(
    sorted_keys: np.ndarray, key: float, hint: tuple[int, int], side: str = "left"
) -> int:
    """Exact insertion rank of ``key``, starting from a predicted range.

    ``hint`` is the model's search range.  If the true boundary lies outside
    it (possible for keys that were never indexed, where the empirical error
    bounds give no guarantee), the bracket grows by doubling — so the cost
    stays proportional to the prediction error, not to ``n``.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = len(sorted_keys)
    if n == 0:
        return 0
    lo = max(0, min(hint[0], n - 1))
    hi = max(lo + 1, min(n, hint[1]))

    # Grow the bracket downward until the boundary cannot be left of `lo`:
    # for both sides it suffices that sorted_keys[lo - 1] < key (left) or
    # <= key (right); use the conservative strict comparison for both.
    step = max(1, hi - lo)
    while lo > 0 and sorted_keys[lo - 1] >= key:
        lo = max(0, lo - step)
        step *= 2
    # Grow upward until the boundary cannot be right of `hi`.
    step = max(1, hi - lo)
    while hi < n and (
        sorted_keys[hi - 1] < key if side == "left" else sorted_keys[hi - 1] <= key
    ):
        hi = min(n, hi + step)
        step *= 2
    return int(lo + np.searchsorted(sorted_keys[lo:hi], key, side=side))


class MLIndex(MapAndSortIndex):
    """The ML-Index learned spatial index.

    Parameters
    ----------
    n_references:
        Number of iDistance reference points (k-means centroids of the
        data, per the original design).
    branching:
        Stage-2 fan-out of the RMI (1 = a single model).
    """

    name = "ML"
    state_params = ("n_references", "branching", "seed")

    #: iDistance keys are floats; candidates match within this tolerance.
    KEY_ATOL = 1e-12

    def __init__(
        self,
        builder: ModelBuilder | None = None,
        block_size: int = 100,
        n_references: int = 16,
        branching: int = 8,
        seed: int = 0,
    ) -> None:
        super().__init__(builder, block_size)
        self.n_references = n_references
        self.branching = branching
        self.seed = seed
        self.mapping: IDistanceMapping | None = None

    # ------------------------------------------------------------------
    def map(self, points: np.ndarray) -> np.ndarray:
        """The base index's ``map()``: iDistance keys, in the key dtype.

        The cast happens here so build-time store keys and query-time probe
        keys are bit-identical for equal coordinates; error bounds are
        measured over the cast keys.
        """
        self._check_built()
        assert self.mapping is not None
        return self.mapping.keys(points).astype(self.key_dtype, copy=False)

    def _fit_mapping(self, points: np.ndarray) -> None:
        self.mapping = IDistanceMapping.fit(
            points, n_references=self.n_references, seed=self.seed
        )

    def _mapping_state(self) -> dict:
        return {"references": self.mapping.references, "stretch": self.mapping.stretch}

    def _restore_mapping(self, state: dict) -> None:
        self.mapping = IDistanceMapping(
            references=state["references"], stretch=state["stretch"]
        )

    def _check_insert(self, point: np.ndarray, key: float) -> None:
        """A point farther than the stretch from every reference would get a
        key inside the next partition's range, past the cap that window and
        kNN scans stop at (:meth:`_partition_caps`): found by a point
        lookup, missed by a window."""
        assert self.mapping is not None
        partition = int(self.mapping.nearest_reference(point)[0][0])
        if key >= self.key_dtype.type((partition + 1) * self.mapping.stretch):
            raise InsertRefused(
                f"ML-Index cannot insert {point.tolist()}: it is farther from "
                f"every reference point than the stretch {self.mapping.stretch:g} "
                f"that separates partitions in key space"
            )

    # ------------------------------------------------------------------
    def _scan_key_interval(self, key_lo: float, key_hi: float) -> np.ndarray:
        """Scan all points whose *stored* key lies in the cast interval.

        Boundaries go through the key-dtype cast: for quantised key columns
        a raw float64 boundary could fall above a stored key whose true
        (pre-cast) value is inside the interval, so the monotone cast —
        which brackets a superset of the true candidates — is required for
        correctness, not just speed.  Downstream exact coordinate/distance
        filters remove the extras.
        """
        assert self.store is not None and self.model is not None
        key_lo = self.key_dtype.type(key_lo)
        key_hi = self.key_dtype.type(key_hi)
        lo = locate_rank(self.store.keys, key_lo, self.model.search_range(key_lo), "left")
        hi = locate_rank(self.store.keys, key_hi, self.model.search_range(key_hi), "right")
        pts, _keys, _ids = self.store.scan(lo, hi)
        self.query_stats.model_invocations += 2
        self.query_stats.points_scanned += len(pts)
        return pts

    def _partition_caps(self) -> np.ndarray:
        """Per partition, the largest key (in the key dtype) below the next
        partition's first key.  An annulus whose outer radius exceeds the
        stretch constant (a query far outside the data, a huge window)
        would otherwise run into the next partition's keys and report its
        rows a second time."""
        assert self.mapping is not None
        first_next = (np.arange(self.mapping.n_references) + 1.0) * self.mapping.stretch
        return np.nextafter(
            first_next.astype(self.key_dtype), self.key_dtype.type(-np.inf)
        )

    def window_queries(self, windows: "list[Rect]") -> list[np.ndarray]:
        """Exact window queries, one window at a time (no fused kernel yet).

        Each window is circumscribed by a ball; the iDistance annulus
        filter yields one candidate key interval per reference partition,
        and each interval is scanned and filtered by the rectangle.
        """
        self._check_built()
        assert self.mapping is not None
        caps = self._partition_caps()
        out: list[np.ndarray] = []
        for window in windows:
            self.query_stats.queries += 1
            center = window.center
            radius = float(np.linalg.norm(window.extents) / 2.0)
            results = []
            intervals = self.mapping.annulus_keys(center, radius)
            for (key_lo, key_hi), cap in zip(intervals, caps):
                pts = self._scan_key_interval(key_lo, min(key_hi, cap))
                if len(pts):
                    inside = pts[window.contains_points(pts)]
                    if len(inside):
                        results.append(inside)
            out.append(np.vstack(results) if results else np.empty((0, window.ndim)))
        return out

    def _knn_rounds(self, pts: np.ndarray, k: int) -> list[np.ndarray]:
        """Exact kNN by iDistance radius expansion, vectorised over the batch.

        One loop over expansion *rounds* shared by all still-active
        queries.  Each round locates every (query, partition) annulus
        interval in the sorted key array with two batched ``searchsorted``
        calls (exact ranks, no model pass, so no ``model_invocations``),
        gathers all candidate rows in one flattened indexing pass, ranks
        them with a stable owner-major / distance-minor lexsort (ties keep
        partition order), and retires the queries that meet the original
        iDistance termination condition — at least k candidates within the
        certified radius — or whose ball already covers the data bounds
        (fewer than k points indexed: everything found, nearest first).
        """
        assert self.mapping is not None and self.store is not None
        assert self.bounds is not None
        b = len(pts)
        self.query_stats.queries += b
        d = self.bounds.ndim
        volume = self.bounds.area()
        density = self.n_points / volume if volume > 0 else self.n_points
        radius = np.full(b, 0.5 * (k / max(density, 1e-12)) ** (1.0 / d))
        # Give up once the ball must cover the data bounds: the query's
        # distance to their farthest corner (at most the space diameter for
        # a query inside them; a query outside needs more).
        reach = np.maximum(
            np.abs(pts - self.bounds.lo_array), np.abs(pts - self.bounds.hi_array)
        )
        max_radius = np.sqrt(np.einsum("ij,ij->i", reach, reach)) + 1e-9
        refs = self.mapping.references
        m = len(refs)
        # Query-to-reference distances: computed once, reused every round.
        diff = pts[:, None, :] - refs[None, :, :]
        ref_dist = np.sqrt(np.einsum("bmd,bmd->bm", diff, diff))
        base = np.arange(m) * self.mapping.stretch
        caps = self._partition_caps()
        store_keys = self.store.keys
        results: list[np.ndarray | None] = [None] * b
        active = np.arange(b)
        while len(active):
            a = len(active)
            r = radius[active][:, None]
            rd = ref_dist[active]
            key_lo = base[None, :] + np.maximum(0.0, rd - r)
            key_hi = base[None, :] + rd + r
            # Boundaries pass through the same monotone key-dtype cast as
            # the stored keys (see _scan_key_interval), so quantised key
            # columns yield a superset of the true candidate runs.
            lo = np.searchsorted(
                store_keys,
                cast_boundaries(key_lo.ravel(), store_keys.dtype),
                side="left",
            )
            hi = np.searchsorted(
                store_keys,
                np.minimum(cast_boundaries(key_hi, store_keys.dtype), caps).ravel(),
                side="right",
            )
            # An annulus that starts past its partition's cap is empty.  Every
            # candidate row is charged once; block reads are charged once per
            # merged interval group, vectorised.
            counts = np.maximum(hi - lo, 0)
            self.query_stats.points_scanned += int(counts.sum())
            self.store.charge_block_reads(*merge_ranges(lo, hi))
            total = int(counts.sum())
            per_query = counts.reshape(a, m).sum(axis=1)
            if total:
                # Flatten all candidate runs, grouped per query in partition
                # order (the order the stable lexsort below breaks ties in).
                offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
                rows = (
                    np.arange(total)
                    - np.repeat(offsets, counts)
                    + np.repeat(lo, counts)
                )
                owner = np.repeat(
                    np.repeat(np.arange(a), m), counts.reshape(a, m).ravel()
                )
                cand = self.store.points[rows]
                cdiff = cand - pts[active][owner]
                dist = np.sqrt(np.einsum("ij,ij->i", cdiff, cdiff))
                within = np.bincount(
                    owner, weights=(dist <= radius[active][owner]), minlength=a
                )
                order = np.lexsort((dist, owner))
                cand = cand[order]
            else:
                within = np.zeros(a)
            starts = np.concatenate(([0], np.cumsum(per_query)))
            still: list[int] = []
            for j, qi in enumerate(active):
                c = int(per_query[j])
                s0 = int(starts[j])
                if within[j] >= k:
                    results[qi] = cand[s0 : s0 + k].copy()
                elif radius[qi] > max_radius[qi]:
                    # Fewer than k reachable: return everything, nearest
                    # first (empty when nothing was gathered at all).
                    results[qi] = (
                        cand[s0 : s0 + min(k, c)].copy() if c else np.empty((0, d))
                    )
                else:
                    still.append(int(qi))
            if still:
                radius[still] *= 2.0
            active = np.array(still, dtype=np.int64)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]
