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

from repro.indices.base import InsertRefused, ModelBuilder, rank_by_owner
from repro.indices.mapsort import MapAndSortIndex
from repro.perf.batching import merge_ranges
from repro.spatial.idistance import IDistanceMapping

__all__ = ["MLIndex"]

#: Candidate rows a kNN round refines at a time: beyond a few 10^4 rows
#: the round's gathered arrays leave cache (docs/performance.md).
_KNN_GROUP_ROWS = 1 << 14


def _norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, ``sqrt(einsum)`` as everywhere
    else, except where a finite difference's squares overflow (beyond
    ~1e154): there the difference is scaled by its largest component
    first, so a far query is far, not infinitely far."""
    norm = np.sqrt(np.einsum("...d,...d->...", diff, diff))
    over = np.isinf(norm) & np.isfinite(diff).all(axis=-1)
    if over.any():
        big = diff[over]
        scale = np.abs(big).max(axis=-1, keepdims=True)
        unit = big / scale
        norm[over] = scale[:, 0] * np.sqrt(np.einsum("ij,ij->i", unit, unit))
    return norm


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
        pass, so no ``model_invocations``).

        Every stored point is within the stretch of its reference (a point
        farther away is refused), so an unbounded side is cut at the edge
        of the box the references span, widened by the stretch: the window
        keeps its rows, and its ball a finite centre."""
        assert self.mapping is not None
        refs, stretch = self.mapping.references, self.mapping.stretch
        win_lo = np.where(win_lo == -np.inf, refs.min(axis=0) - stretch, win_lo)
        win_hi = np.where(win_hi == np.inf, refs.max(axis=0) + stretch, win_hi)
        lo, hi = self._annulus_ranks(
            _norms(refs - ((win_lo + win_hi) / 2.0)[:, None, :]),
            _norms(win_hi - win_lo) / 2.0,
        )
        return self._one_run(
            lo, hi, np.repeat(np.arange(len(win_lo)), self.mapping.n_references)
        )

    def _knn_rounds(self, pts: np.ndarray, k: int) -> list[np.ndarray]:
        """Exact kNN by iDistance radius expansion, vectorised over the batch.

        One loop over expansion *rounds* shared by all still-active
        queries.  Each round locates every (query, partition) annulus
        interval in the sorted key array with two batched ``searchsorted``
        calls (exact ranks, no model pass, so no ``model_invocations``) and
        charges the whole round's rows and merged block reads.  It then
        refines the active queries in groups of about :data:`_KNN_GROUP_ROWS`
        candidate rows: gathers them, ranks them with
        :func:`~repro.indices.base.rank_by_owner` (ties keep partition
        order), and retires the queries that meet the original iDistance
        termination condition — at least k candidates within the certified
        radius — or whose ball already covers the data bounds (fewer than k
        points indexed: everything found, nearest first).
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
        # a query inside them; a query outside needs more).  A non-finite
        # coordinate has no such distance; its annuli are empty, and the
        # finite ones set when it stops.
        reach = np.maximum(
            np.abs(pts - self.bounds.lo_array), np.abs(pts - self.bounds.hi_array)
        )
        reach = np.where(np.isfinite(reach), reach, 0.0)
        max_radius = _norms(reach) + 1e-9
        refs = self.mapping.references
        m = len(refs)
        # Query-to-reference distances: computed once, reused every round.
        ref_dist = _norms(pts[:, None, :] - refs[None, :, :])
        store = self.run.store
        results: list[np.ndarray | None] = [None] * b
        active = np.arange(b)
        while len(active):
            lo, hi = self._annulus_ranks(ref_dist[active], radius[active])
            # Every candidate row is charged once; block reads are charged
            # once per merged interval group, vectorised.
            counts = np.maximum(hi - lo, 0)
            self.query_stats.points_scanned += int(counts.sum())
            store.charge_block_reads(*merge_ranges(lo, hi))
            per_query = counts.reshape(len(active), m).sum(axis=1)
            starts = np.cumsum(per_query) - per_query
            offsets = np.cumsum(counts) - counts
            done = np.zeros(len(active), dtype=bool)
            # Refined in consecutive groups of queries, a new one wherever
            # the rows before a query pass another multiple of the budget.
            cuts = np.flatnonzero(np.diff(starts // _KNN_GROUP_ROWS)) + 1
            for j0, j1 in zip([0, *cuts.tolist()], [*cuts.tolist(), len(active)]):
                group, n_cand = active[j0:j1], per_query[j0:j1]
                # Rows query-major, partitions ascending, scan order within.
                e0, e1 = j0 * m, j1 * m
                rows = np.arange(offsets[e0], offsets[e0] + n_cand.sum())
                rows -= np.repeat(offsets[e0:e1] - lo[e0:e1], counts[e0:e1])
                cand = store.points.take(rows, axis=0)
                cdiff = cand - np.repeat(pts[group], n_cand, axis=0)
                dist = np.sqrt(np.einsum("ij,ij->i", cdiff, cdiff))
                owner = np.repeat(np.arange(len(group)), n_cand)
                order = rank_by_owner(owner, dist, len(group))
                cand = cand.take(order, axis=0)
                first = starts[j0:j1] - starts[j0]
                # k-th distance per query: inf with fewer than k candidates.
                full = n_cand >= k
                kth = np.full(len(group), np.inf)
                kth[full] = dist[order[first[full] + k - 1]]
                # Retired: k candidates within the radius, or a ball that
                # outgrew the data — spelt so that a NaN counts as outgrown.
                r = radius[group]
                out = (kth <= r) | ~(r <= max_radius[group])
                ends = first + np.minimum(n_cand, k)
                # Copied: a view would keep the group's candidates alive.
                for qi, start, end in zip(
                    group[out].tolist(), first[out].tolist(), ends[out].tolist()
                ):
                    results[qi] = cand[start:end].copy()
                done[j0:j1] = out
            active = active[~done]
            radius[active] *= 2.0
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]
