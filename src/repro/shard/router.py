"""Scatter-gather routing over the shard fleet.

The :class:`ShardRouter` is the client-facing face of the sharded tier:
it takes whole query batches, splits them along the shard map's key
ranges, fans the sub-batches to the owning workers concurrently, and
reassembles the answers in the caller's order.

Routing per query kind
----------------------
Batches are routed whole: the shard map is asked once per batch
(:meth:`ShardMap.shard_of_points`, :meth:`ShardMap.shard_spans`), every
sub-request and reply is a few arrays (see :mod:`repro.shard.worker`),
and no step below runs once per query except slicing the answers apart.

- **point batches** — each row goes to exactly the shard owning its
  curve code; one ``point_batch`` sub-request per involved shard.
- **window batches** — each window goes to every shard overlapping its
  corner-code interval; per-window
  results are the concatenation of the per-shard results in shard order.
  Note the row order within a window's result therefore differs from a
  single unsharded index's scan order — the *multiset* of points is
  identical (tests compare canonicalised forms).
- **kNN batches** — two-round scatter: round one asks each query's home
  shard for its k nearest; the kth distance bounds a ball, and round two
  asks only the other shards whose key range intersects the ball's
  bounding-rect interval (no such shard can hold anything closer than
  the current kth candidate) — and asks them for that bounding rect as
  a *window*, not for their own k nearest: whatever can still enter the
  top k lies inside it, and a shard's k nearest to a point outside its
  data cost tens of thousands of scanned rows a query.  Only a query
  whose home shard held fewer than k points (no radius yet) asks the
  others for their k nearest.  The global answer is the top k of the union, ranked
  by distance with coordinates as the deterministic tie-break.

Failure handling (the PR 7 vocabulary, per shard)
-------------------------------------------------
- ``ServerOverloaded`` → exponential-backoff retry against the same
  shard, up to :data:`MAX_RETRIES` times.
- dead worker (``ShardUnavailable``) → for *queries* the router respawns
  the shard (``from_snapshot(..., wal=True)`` recovery from its own
  directory) and retries — queries are idempotent; for *updates* the
  error surfaces: an acknowledged update is applied exactly once, and an
  unacknowledged one is reported, never silently retried across a crash
  boundary.
- wedged worker (``ShardTimeout``) → the handle poisons itself (the
  stale in-flight reply must never reach a later request), so the
  router treats it exactly like a death: idempotent queries respawn the
  shard (killing the wedged process) and retry; a timed-out *update*
  surfaces — its outcome is unknown, so it is never resent.
- ``ServerReadOnly`` → surfaces on the update, and is counted on
  ``router.read_only_rejections``; other shards keep absorbing theirs,
  and :meth:`ShardRouter.health_summary` names the read-only shard.

Observability
-------------
Every scatter runs under a ``shard.scatter`` span carrying a fresh
``request_id``; when tracing is on, the span's trace context
(``trace_id`` / ``parent_span_id`` / ``request_id``) rides the RPC to
each worker, which answers with its own captured spans — adopted back
under the scatter span by the handle, so one batch renders as one tree
across every process it touched (retries, respawns, and failed branches
included as ``shard.retry`` / ``shard.respawn`` / ``error=...`` spans).
When tracing is off the scatter span is the shared no-op and the wire
carries ``None`` — workers skip capture entirely.

:meth:`ShardRouter.stats_snapshot` is one synchronous scrape per call:
it asks every worker for its ``stats_snapshot()`` export and merges those
with the router's own counters into one view via
:meth:`MetricsRegistry.merge` — counters sum and histogram buckets add,
so fleet-wide percentiles are computed over the union of all samples.
Each shard gets a ``telemetry.shard_up`` marker (1 answered this scrape,
0 did not) and a ``telemetry.scrape_age_seconds`` gauge (seconds since it
last answered).  A dead or wedged shard keeps its last good export in the
view — counters are history, not liveness — and is counted on
``telemetry.scrape_failures``.  Scrapes go through the handles directly
(no retry, no respawn): reading the fleet never mutates it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from repro.core.update_processor import update_point
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer, new_request_id, span as _span
from repro.queries.types import check_k
from repro.serve.errors import ServerOverloaded, ServerReadOnly
from repro.shard.errors import ShardTimeout, ShardUnavailable
from repro.shard.handle import ShardHandle
from repro.shard.shardmap import ShardMap

__all__ = ["ShardRouter"]

#: Per-shard deadline for one sub-request, in seconds.
REQUEST_TIMEOUT = 60.0
#: Retry budget per sub-request: overload backoff and post-respawn
#: retries both draw from it.
MAX_RETRIES = 3
#: Exponential-backoff window of ``ServerOverloaded`` retries, in seconds.
RETRY_BASE_DELAY = 0.01
RETRY_MAX_DELAY = 0.5
#: Per-shard scrape deadline: generous enough for a busy worker, short
#: enough that one wedged shard cannot stall a snapshot for a whole
#: :data:`REQUEST_TIMEOUT`.
SCRAPE_TIMEOUT = 10.0


class ShardRouter:
    """Fan query batches out to shard workers; fold the answers back."""

    def __init__(
        self,
        shard_map: ShardMap,
        handles: "list[ShardHandle]",
    ) -> None:
        if shard_map.n_shards != len(handles):
            raise ValueError(
                f"shard map has {shard_map.n_shards} shards but "
                f"{len(handles)} handles were provided"
            )
        self.shard_map = shard_map
        self.handles = list(handles)
        self.registry = MetricsRegistry()
        # Each shard's last good stats export and the monotonic time it
        # arrived: a shard that stops answering keeps its counters in
        # stats_snapshot() while its scrape age grows.
        self._exports: dict[int, dict] = {}
        self._scraped_at: dict[int, float] = {}
        self._born = time.monotonic()
        self._closed = False
        # One respawn lock per shard: concurrent scatter threads that hit
        # the same dead worker must not both restart it.
        self._respawn_locks = [threading.Lock() for _ in handles]
        self._pool = ThreadPoolExecutor(
            max_workers=max(len(handles), 1), thread_name_prefix="shard-scatter"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.shard_map.n_shards

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        for handle in self.handles:
            handle.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # One sub-request, with the failure vocabulary applied
    # ------------------------------------------------------------------
    def _call(
        self, shard_id: int, command: str, *payload,
        idempotent: bool, trace: "dict | None" = None,
    ):
        handle = self.handles[shard_id]
        # Scatter runs on pool threads, which don't inherit the caller
        # thread's span stack — seed it from the explicit trace context so
        # retry/respawn spans opened here land under the scatter span.
        ambient = (
            get_tracer().ambient(
                trace.get("parent_span_id"), trace_id=trace.get("trace_id")
            )
            if trace is not None
            else nullcontext()
        )
        with ambient:
            attempt = 0
            while True:
                try:
                    return handle.request(
                        command, *payload, timeout=REQUEST_TIMEOUT, trace=trace
                    )
                except ServerOverloaded:
                    self.registry.counter(
                        "router.retries", shard=shard_id, reason="overloaded"
                    ).inc()
                    attempt += 1
                    if attempt > MAX_RETRIES:
                        raise
                    with _span(
                        "shard.retry", shard=shard_id,
                        reason="overloaded", attempt=attempt,
                    ):
                        time.sleep(
                            min(RETRY_BASE_DELAY * (2 ** (attempt - 1)), RETRY_MAX_DELAY)
                        )
                except (ShardUnavailable, ShardTimeout) as exc:
                    # A timed-out handle poisoned itself (alive() is now
                    # False): like a dead worker, the wedged one must be
                    # killed and respawned before the shard answers again.
                    timed_out = isinstance(exc, ShardTimeout)
                    self.registry.counter(
                        "router.shard_timeouts" if timed_out else "router.shard_deaths",
                        shard=shard_id,
                    ).inc()
                    if not idempotent:
                        raise
                    attempt += 1
                    if attempt > MAX_RETRIES:
                        raise
                    with _span(
                        "shard.retry", shard=shard_id,
                        reason="timeout" if timed_out else "unavailable",
                        attempt=attempt,
                    ):
                        self._ensure_alive(shard_id)

    def _ensure_alive(self, shard_id: int) -> None:
        """Respawn a dead shard exactly once per death, however many
        scatter threads observe it."""
        handle = self.handles[shard_id]
        with self._respawn_locks[shard_id]:
            if handle.alive():
                return
            with _span("shard.respawn", shard=shard_id):
                handle.respawn()
            self.registry.counter("router.respawns", shard=shard_id).inc()

    def _scatter(
        self, calls: "dict[int, tuple]", idempotent: bool,
        trace: "dict | None" = None,
    ) -> dict:
        """Run ``{shard_id: (command, *payload)}`` concurrently; returns
        ``{shard_id: result}``.  Any failure propagates after all
        in-flight sub-requests finish."""
        if not calls:
            return {}
        if len(calls) == 1:
            ((sid, call),) = calls.items()
            return {
                sid: self._call(sid, *call, idempotent=idempotent, trace=trace)
            }
        futures = {
            sid: self._pool.submit(
                self._call, sid, *call, idempotent=idempotent, trace=trace
            )
            for sid, call in calls.items()
        }
        results, first_error = {}, None
        for sid, future in futures.items():
            try:
                results[sid] = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                first_error = first_error or exc
        if first_error is not None:
            raise first_error
        return results

    @staticmethod
    def _trace_ctx(scatter_span) -> "dict | None":
        """The cross-process trace context for one scatter: ``None`` when
        tracing is off (the span is the shared no-op — workers then skip
        capture), else the scatter span's trace/span ids plus a fresh
        ``request_id`` stamped on the span itself so ``repro obs trace
        --request`` finds the tree."""
        if scatter_span.span_id is None:
            return None
        request_id = new_request_id()
        scatter_span.set(request_id=request_id)
        return {
            "trace_id": scatter_span.trace_id,
            "parent_span_id": scatter_span.span_id,
            "request_id": request_id,
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def point_queries(self, points: np.ndarray) -> np.ndarray:
        """Batch membership: each row answered by its owning shard."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(pts) == 0:
            return np.zeros(0, dtype=bool)
        owners = self.shard_map.shard_of_points(pts)
        calls = {
            int(sid): ("point_batch", pts[owners == sid])
            for sid in np.unique(owners)
        }
        self.registry.counter("router.queries", kind="point").inc(len(pts))
        with _span(
            "shard.scatter", kind="point", n=len(pts), shards=len(calls)
        ) as sp:
            replies = self._scatter(
                calls, idempotent=True, trace=self._trace_ctx(sp)
            )
        out = np.zeros(len(pts), dtype=bool)
        for sid, hits in replies.items():
            out[owners == sid] = np.asarray(hits, dtype=bool)
        return out

    def window_queries(self, windows: "list") -> "list[np.ndarray]":
        """Batch windows: each split across its range-overlapping shards.

        One :meth:`ShardMap.shard_spans` call routes the whole batch.  A
        window's rows are its shards' rows in shard order; when only one
        shard has rows for it (most windows visit one shard) they are a
        slice of that shard's reply, not a copy.

        Returns one ``(m, d)`` float64 array per window.  The arrays may
        be views of one buffer per shard (disjoint rows, so writing to
        one never shows in another); a view keeps that whole buffer
        alive, so ``copy()`` a result that is to outlive its batch.
        """
        if not windows:
            return []
        w = len(windows)
        lo = np.array([win.lo for win in windows], dtype=np.float64)
        hi = np.array([win.hi for win in windows], dtype=np.float64)
        first, last = self.shard_map.shard_spans(lo, hi)
        members = _span_members(first, last)
        calls = {
            sid: ("window_batch", lo[rows], hi[rows])
            for sid, rows in members.items()
        }
        self.registry.counter("router.queries", kind="window").inc(w)
        with _span(
            "shard.scatter", kind="window", n=w, shards=len(calls)
        ) as sp:
            replies = self._scatter(
                calls, idempotent=True, trace=self._trace_ctx(sp)
            )
        parts: list[list[np.ndarray]] = [[] for _ in windows]
        for sid in sorted(replies):  # shard order => deterministic output
            for i, rows in zip(members[sid].tolist(), replies[sid].split()):
                if len(rows):
                    parts[i].append(rows)
        d = lo.shape[1]
        return [
            p[0] if len(p) == 1
            else np.concatenate(p) if p
            else np.empty((0, d), dtype=np.float64)
            for p in parts
        ]

    def knn_queries(self, points: np.ndarray, k: int) -> "list[np.ndarray]":
        """Batch kNN: home-shard round, then radius-pruned widening.

        Candidates of the whole batch live in one flat array with an
        ``owner`` (query row) per candidate, so the kth distances after
        round one and the final top k are each one distance pass and one
        lexsort, whatever the batch size.
        """
        k = check_k(k)
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        b = len(pts)
        if b == 0:
            return []
        self.registry.counter("router.queries", kind="knn").inc(b)
        home = self.shard_map.shard_of_points(pts)
        members = {
            int(sid): np.flatnonzero(home == sid) for sid in np.unique(home)
        }
        # One scatter span covers both kNN rounds: the widening round's
        # per-shard dispatches adopt under the same root, so the tree
        # shows the full two-round fan-out of each request.
        with _span(
            "shard.scatter", kind="knn", n=b, k=k, shards=len(members)
        ) as sp:
            trace = self._trace_ctx(sp)
            found = [self._knn_round(pts, k, members, trace)]
            if self.n_shards > 1:
                # Round two: shards whose range intersects the ball of the
                # kth candidate distance (everything, when round one came up
                # short of k — the radius is unbounded then).
                radius = _kth_distances(pts, *found[0], k)[:, None]
                first, last = self.shard_map.shard_spans(pts - radius, pts + radius)
                members = _span_members(first, last, skip=home)
                if members:
                    round2 = sum(len(rows) for rows in members.values())
                    self.registry.counter("router.knn_round2").inc(round2)
                    sp.set(round2=round2)
                    bounded = np.isfinite(radius[:, 0])
                    balls, rest = _only(members, bounded), _only(members, ~bounded)
                    if balls:
                        found.append(self._knn_round(pts, k, balls, trace, radius))
                    if rest:
                        found.append(self._knn_round(pts, k, rest, trace))
            cand = np.concatenate([c for c, _owner in found])
            owner = np.concatenate([o for _c, o in found])
        return _top_k(pts, cand, owner, k)

    def _knn_round(
        self, pts: np.ndarray, k: int, members: "dict[int, np.ndarray]", trace,
        radius: "np.ndarray | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Ask each shard for the k nearest of its ``members`` rows of
        ``pts`` — or, given their ``radius`` (round two), for what it holds
        in the ball's bounding rect, a few ulps (at the coordinates' scale)
        wider so that rounding in ``q -+ r`` cannot leave out a point at
        exactly the kth distance, which may win the coordinate tie-break.
        Returns every candidate and the query row it answers."""
        if radius is None:
            calls = {sid: ("knn_batch", pts[rows], k) for sid, rows in members.items()}
        else:
            reach = radius + (np.abs(pts).max(axis=1, keepdims=True) + radius) * 2.0**-50
            lo, hi = pts - reach, pts + reach
            calls = {
                sid: ("window_batch", lo[rows], hi[rows]) for sid, rows in members.items()
            }
        replies = self._scatter(calls, idempotent=True, trace=trace)
        cand = [replies[sid].rows for sid in members]
        owner = [
            np.repeat(rows, replies[sid].counts) for sid, rows in members.items()
        ]
        return np.concatenate(cand), np.concatenate(owner)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, point: np.ndarray) -> None:
        """Route one insert to its owning shard (at-most-once)."""
        self._update("insert", update_point(point, self.shard_map.bounds.ndim))

    def delete(self, point: np.ndarray) -> bool:
        """Route one delete to its owning shard (at-most-once)."""
        return self._update("delete", update_point(point, self.shard_map.bounds.ndim))

    def _update(self, op: str, pt: np.ndarray):
        """Route one update whose point ``update_point`` already checked:
        a NaN or infinite one must never reach the shard map's cast."""
        sid = int(self.shard_map.shard_of_points(pt[None, :])[0])
        with _span("shard.update", op=op, shard=sid) as sp:
            # A dead worker noticed *before* anything is sent is safe to
            # recover through — nothing is in flight, so routing the update
            # to the respawned shard cannot double-apply.  Only death
            # mid-request (outcome unknown) surfaces to the caller.
            if not self.handles[sid].alive():
                self._ensure_alive(sid)
            try:
                result = self._call(
                    sid, op, pt, idempotent=False, trace=self._trace_ctx(sp)
                )
            except ServerReadOnly:
                self.registry.counter(
                    "router.read_only_rejections", shard=sid
                ).inc()
                raise
        self.registry.counter("router.updates", op=op).inc()
        return result

    # ------------------------------------------------------------------
    # Health and metrics
    # ------------------------------------------------------------------
    def health_summary(self) -> dict:
        """Per-shard health plus a fleet verdict: ``healthy`` — every
        shard healthy; ``down`` — every shard unreachable (or there are
        none); ``degraded`` — anything between, the fleet still answers."""
        shards = {}
        for handle in self.handles:
            sid = handle.shard_id
            try:
                shards[sid] = self._call(sid, "status", idempotent=False)
            except (ShardUnavailable, ShardTimeout) as exc:
                shards[sid] = {"health": "down", "error": type(exc).__name__}
        states = [s["health"] for s in shards.values()]
        if all(state == "down" for state in states):
            overall = "down"
        elif all(state == "healthy" for state in states):
            overall = "healthy"
        else:
            overall = "degraded"
        return {"overall": overall, "shards": shards}

    def stats_snapshot(self) -> dict:
        """One fleet-wide metrics export, scraped now: each shard's
        ``stats_snapshot()`` (its last good one, if it does not answer)
        merged — counters summed, histogram buckets added, gauges by
        freshest stamp — with per-shard ``telemetry.shard_up`` /
        ``telemetry.scrape_age_seconds`` gauges and the router's own
        registry, which counts ``telemetry.scrapes`` and
        ``telemetry.scrape_failures`` per shard."""
        merged = MetricsRegistry()
        for handle in self.handles:
            sid = handle.shard_id
            try:
                self._exports[sid] = handle.request("stats", timeout=SCRAPE_TIMEOUT)
            except (ShardUnavailable, ShardTimeout):
                self.registry.counter("telemetry.scrape_failures", shard=sid).inc()
                up = False
            else:
                self.registry.counter("telemetry.scrapes", shard=sid).inc()
                self._scraped_at[sid] = time.monotonic()
                up = True
            if sid in self._exports:
                merged.merge(self._exports[sid])
            age = time.monotonic() - self._scraped_at.get(sid, self._born)
            merged.gauge("telemetry.scrape_age_seconds", shard=sid).set(age)
            merged.gauge("telemetry.shard_up", shard=sid).set(float(up))
        merged.merge(self.registry.export())
        return merged.export()


# ----------------------------------------------------------------------
# Batch routing and kNN merge helpers
# ----------------------------------------------------------------------
def _span_members(
    first: np.ndarray, last: np.ndarray, skip: "np.ndarray | None" = None
) -> "dict[int, np.ndarray]":
    """``{shard: rows}`` for every shard inside some row's ``first ..
    last`` span (rows ascending), leaving out each row's ``skip`` shard."""
    members = {}
    for sid in range(int(first.min()), int(last.max()) + 1):
        hit = (first <= sid) & (sid <= last)
        if skip is not None:
            hit &= skip != sid
        rows = np.flatnonzero(hit)
        if len(rows):
            members[sid] = rows
    return members


def _only(members: "dict[int, np.ndarray]", keep: np.ndarray) -> "dict[int, np.ndarray]":
    """``members`` restricted to the rows where ``keep`` holds."""
    kept = {sid: rows[keep[rows]] for sid, rows in members.items()}
    return {sid: rows for sid, rows in kept.items() if len(rows)}


def _distances(pts: np.ndarray, cand: np.ndarray, owner: np.ndarray) -> np.ndarray:
    diff = cand - pts[owner]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _by_owner(owner: np.ndarray, b: int) -> "tuple[np.ndarray, np.ndarray]":
    """Start and length of each query's run in an owner-sorted order."""
    counts = np.bincount(owner, minlength=b)
    return np.cumsum(counts) - counts, counts


def _kth_distances(
    pts: np.ndarray, cand: np.ndarray, owner: np.ndarray, k: int
) -> np.ndarray:
    """Per query, the distance of its kth-best candidate so far (inf
    when it has fewer than k)."""
    dist = _distances(pts, cand, owner)
    dist = dist[np.lexsort((dist, owner))]
    starts, counts = _by_owner(owner, len(pts))
    radius = np.full(len(pts), np.inf)
    enough = counts >= k
    radius[enough] = dist[starts[enough] + (k - 1)]
    return radius


def _top_k(
    pts: np.ndarray, cand: np.ndarray, owner: np.ndarray, k: int
) -> "list[np.ndarray]":
    """Per query, the top k of its candidates, ranked by distance with
    coordinates as the deterministic tie-break (shard arrival order must
    never leak into the result)."""
    dist = _distances(pts, cand, owner)
    ranked = cand[np.lexsort(tuple(cand.T[::-1]) + (dist, owner))]
    starts, counts = _by_owner(owner, len(pts))
    return [
        ranked[start : start + min(k, count)]
        for start, count in zip(starts.tolist(), counts.tolist())
    ]
