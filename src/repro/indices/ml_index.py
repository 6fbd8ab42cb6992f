"""ML-Index (Davitkova et al., EDBT 2020): iDistance keys + learned CDF.

Map-and-sort: each point maps to ``j * c + dist(p, o_j)`` for its nearest
reference point ``o_j`` (the iDistance transform), and points are stored in
key order.  Predict-and-scan: an RMI predicts the storage address.

ML-Index answers window and kNN queries *exactly* (the paper: "By design,
ML offers accurate results"): a window is circumscribed by a ball, the
iDistance annulus filter yields one candidate key interval per reference
partition, and each interval is scanned between its exact boundary ranks
(``searchsorted`` over the key column, for windows and kNN rounds alike).
"""

from __future__ import annotations

import numpy as np

from repro.indices.base import InsertRefused, ModelBuilder
from repro.indices.mapsort import MapAndSortIndex
from repro.perf.batching import merge_ranges
from repro.spatial.idistance import IDistanceMapping

__all__ = ["MLIndex"]


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
        """The base index's ``map()``: iDistance keys, as float64."""
        self._check_built()
        assert self.mapping is not None
        return self.mapping.keys(np.asarray(points, dtype=np.float64))

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
        kNN scans stop at (:meth:`_annulus_ranks`): found by a point
        lookup, missed by a window."""
        assert self.mapping is not None
        partition = int(self.mapping.nearest_reference(point)[0][0])
        if key >= (partition + 1) * self.mapping.stretch:
            raise InsertRefused(
                f"ML-Index cannot insert {point.tolist()}: it is farther from "
                f"every reference point than the stretch {self.mapping.stretch:g} "
                f"that separates partitions in key space"
            )

    # ------------------------------------------------------------------
    def _annulus_ranks(
        self, ref_dist: np.ndarray, radius: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rank runs ``[lo, hi)`` of every (query, partition) annulus, query
        major: the stored keys in ``[j*c + max(0, r_j - radius), j*c + r_j +
        radius]`` for each query's distance ``r_j`` (``ref_dist``, ``(a,
        m)``) to reference ``j``.

        Exact ranks from two batched ``searchsorted`` calls over the key
        column; the exact coordinate / distance filters downstream remove
        the rows an annulus holds outside the query.  The upper boundary
        stops at the partition's largest possible key: an annulus whose
        outer radius exceeds the stretch constant (a query far outside the
        data, a huge window) would otherwise run into the next partition's
        keys and report its rows a second time.  One that starts past that
        cap is empty (``hi <= lo``).
        """
        assert self.mapping is not None
        keys = self.run.store.keys
        partition = np.arange(self.mapping.n_references)
        base = partition * self.mapping.stretch
        caps = np.nextafter((partition + 1.0) * self.mapping.stretch, -np.inf)
        r = radius[:, None]
        key_lo = base + np.maximum(0.0, ref_dist - r)
        key_hi = np.minimum(base + ref_dist + r, caps)
        lo = np.searchsorted(keys, key_lo.ravel(), side="left")
        hi = np.searchsorted(keys, key_hi.ravel(), side="right")
        return lo, hi

    def window_plan(self, win_lo: np.ndarray, win_hi: np.ndarray):
        """Exact: each window is circumscribed by a ball, and the iDistance
        annulus filter yields one candidate key interval per reference
        partition, partitions ascending (:meth:`_annulus_ranks`; no model
        pass, so no ``model_invocations``)."""
        assert self.mapping is not None
        diff = self.mapping.references - ((win_lo + win_hi) / 2.0)[:, None, :]
        extent = win_hi - win_lo
        lo, hi = self._annulus_ranks(
            np.sqrt(np.einsum("wmd,wmd->wm", diff, diff)),
            np.sqrt(np.einsum("wd,wd->w", extent, extent)) / 2.0,
        )
        return self._one_run(
            lo, hi, np.repeat(np.arange(len(win_lo)), self.mapping.n_references)
        )

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
        assert self.mapping is not None and self.bounds is not None
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
        store = self.run.store
        results: list[np.ndarray | None] = [None] * b
        active = np.arange(b)
        while len(active):
            a = len(active)
            lo, hi = self._annulus_ranks(ref_dist[active], radius[active])
            # Every candidate row is charged once; block reads are charged
            # once per merged interval group, vectorised.
            counts = np.maximum(hi - lo, 0)
            self.query_stats.points_scanned += int(counts.sum())
            store.charge_block_reads(*merge_ranges(lo, hi))
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
                cand = store.points[rows]
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
