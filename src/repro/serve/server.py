"""The concurrent index server: micro-batching, generations, live updates.

:class:`IndexServer` owns one built learned index (wrapped in an
:class:`~repro.core.update_processor.UpdateProcessor`) behind a
*generation pointer*.  A request is a batch of one kind — point, window
or kNN — and the per-query spellings are batches of one.  Requests enter
one deque under one condition.  Whoever serves takes everything that is
queued (up to :data:`MAX_BATCH_SIZE`) and makes one processor call per
kind over every request's rows (``point_queries`` / ``window_rows`` /
``knn_queries``, one kNN call per ``k``), handing each request its own
slice.  While a batch is served, the next one forms by itself — that is
where batching pays, so nothing holds a batch open.  Each kind-group of
a batch is stamped once, counted into the stats, and only then released,
so a served request costs little more than its share of the batch call
(``docs/performance.md``, "Where a served request's time goes").

Who serves is settled by one ``_serving`` lock (flat combining): a
thread that waits on a reply whose request is still queued takes the
lock, if it is free, and serves queued batches in order until its own
reply is complete — a closed-loop client answers its whole flight itself
and pays no thread hand-off.  The one dispatcher thread serves under the
same lock whatever nobody waits for (open-loop clients, ``done()``
pollers) and whatever queues up while a waiter serves.

Consistency model:

- Every micro-batch reads the generation pointer **once** and answers all
  of its requests from that generation, so one batch can never mix old
  and new index state.
- Updates apply synchronously to the live generation's update processor
  (side list / deletion marks) and, while a rebuild is in flight, are
  also journalled and replayed into the successor generation before the
  swap — no update is lost across a swap, and no query ever waits for a
  rebuild: the successor (``UpdateProcessor.successor``) is built
  entirely in a background worker, and the swap is a single attribute
  assignment.
- The rebuild worker re-evaluates the rebuild predictor (or the CDF-drift
  heuristic) every ``ELSIConfig.f_u`` updates, exactly the paper's
  ``f_u``-periodic ``to_rebuild`` protocol run off the request path.

Fault tolerance (docs/serving.md, "Durability and failure modes"):

- With a :class:`~repro.serve.wal.WriteAheadLog` attached, every
  insert/delete is appended (fsynced under the default policy) *before*
  the call returns, so recovery = latest loadable snapshot + WAL tail —
  :meth:`IndexServer.from_snapshot` replays it, quarantining corrupt
  snapshots and falling back to older generations.
- Rebuild and snapshot failures retry with exponential backoff + jitter
  up to :data:`MAX_RETRIES` times; the old generation keeps serving.
  The health state walks ``healthy → degraded → read_only``: degraded
  after any failure, read-only (queries served, updates rejected with
  :class:`~repro.serve.errors.ServerReadOnly`) once the rebuild retry
  budget is exhausted.  A later successful rebuild restores ``healthy``.
- Admission control is bounded: past :data:`MAX_QUEUE_DEPTH` queued
  requests a submission sheds with
  :class:`~repro.serve.errors.ServerOverloaded`.  A queued request is
  never shed by age: a client that stops waiting gets
  :class:`~repro.serve.errors.RequestTimeout` from its own ``wait``, and
  the request is still served.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from repro.core.config import ELSIConfig
from repro.core.update_processor import RebuildPredictor, UpdateProcessor, update_point
from repro.faults.registry import fault_check
from repro.indices.base import LearnedSpatialIndex
from repro.obs.metrics import get_registry
from repro.obs.trace import span as _span
from repro.serve.errors import (
    RebuildFailed,
    ServerClosed,
    ServerOverloaded,
    ServerReadOnly,
    SnapshotFailed,
)
from repro.serve.requests import KNN, POINT, WINDOW, Request, release
from repro.serve.snapshots import SnapshotManager
from repro.serve.stats import ServerStats
from repro.serve.wal import FSYNC_POLICIES, WriteAheadLog
from repro.spatial.rect import Rect

__all__ = [
    "DEGRADED",
    "Generation",
    "HEALTHY",
    "IndexServer",
    "READ_ONLY",
    "ServeConfig",
]

#: Serving-health states: ``healthy`` — everything nominal; ``degraded``
#: — a background rebuild/snapshot failed and is being retried while the
#: old generation serves; ``read_only`` — the rebuild retry budget is
#: exhausted, queries are still served but updates are rejected.
HEALTHY = "healthy"
DEGRADED = "degraded"
READ_ONLY = "read_only"

_HEALTH_LEVELS = {HEALTHY: 0, DEGRADED: 1, READ_ONLY: 2}

#: Hard cap on requests per micro-batch: whoever serves takes at most
#: this many from the head of the queue at a time.
MAX_BATCH_SIZE = 256
#: Bounded admission: a submission that finds this many requests queued
#: raises :class:`~repro.serve.errors.ServerOverloaded` instead of
#: growing the queue without limit.
MAX_QUEUE_DEPTH = 10_000
#: Retry budget of a background rebuild or snapshot save: attempts
#: beyond the first.
MAX_RETRIES = 3
#: Exponential-backoff window of those retries, in seconds; each wait is
#: jittered to ``[0.5, 1.5)`` of its step so servers do not retry in step.
RETRY_BASE_DELAY = 0.05
RETRY_MAX_DELAY = 2.0
#: How long :meth:`IndexServer.point_query`, ``window_query`` and
#: ``knn_query`` wait for their answer before raising
#: :class:`~repro.serve.errors.RequestTimeout`, in seconds.
QUERY_TIMEOUT = 30.0


@dataclass(frozen=True)
class ServeConfig:
    """The serving knobs a caller sets; the bounds of batching, admission
    and retries are the module constants above.

    Attributes
    ----------
    max_wait_seconds:
        Single-valued: ``0``, the only value accepted.  Whoever serves —
        the waiting client or the dispatcher — takes whatever is queued
        and the next batch forms meanwhile.  A closed-loop client that
        waits on its flight serves it whole as one batch, so a hold has
        nothing to gather; when the dispatcher served every flight, a
        2 ms hold never enlarged a batch and added 2 ms to every flight
        (docs/performance.md).  The field remains only because the e2e
        benchmark's frozen workload definitions pass it.
    auto_rebuild:
        Whether the background worker checks ``to_rebuild`` every
        ``ELSIConfig.f_u`` updates and swaps in rebuilt generations on its
        own.  :meth:`IndexServer.rebuild_now` works either way.
    fsync_policy:
        WAL durability: ``always`` / ``off`` (see :mod:`repro.serve.wal`).
    """

    max_wait_seconds: float = 0.0
    auto_rebuild: bool = True
    fsync_policy: str = "always"

    def __post_init__(self) -> None:
        if self.max_wait_seconds != 0:
            raise ValueError(
                f"max_wait_seconds can only be 0, got {self.max_wait_seconds}"
            )
        if self.fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync_policy must be one of {FSYNC_POLICIES}, got {self.fsync_policy!r}"
            )


@dataclass(frozen=True)
class Generation:
    """One immutable-pointer serving generation."""

    gen_id: int
    processor: UpdateProcessor

    @property
    def index(self) -> LearnedSpatialIndex:
        return self.processor.index


class IndexServer:
    """A concurrent, micro-batching server over one learned spatial index.

    Parameters
    ----------
    index:
        A *built* :class:`~repro.indices.base.LearnedSpatialIndex`.
    config:
        Rebuild and durability knobs (:class:`ServeConfig`).
    elsi_config:
        Passed to the update processor; its ``f_u`` is also the number
        of updates between background rebuild checks.
    predictor:
        Optional trained rebuild predictor; without one the CDF-drift
        heuristic decides rebuilds.
    index_factory:
        What a rebuild builds into (same contract as
        :class:`UpdateProcessor`); by default the served index's
        ``unbuilt_copy()``: same class, builder and parameters.
    snapshots:
        Optional :class:`SnapshotManager` (or directory path); when set,
        every rebuild's result is persisted as the new generation's
        snapshot.
    wal:
        Write-ahead durability: ``True`` logs updates next to the
        snapshots (requires ``snapshots``), a path logs them there, or
        pass a :class:`~repro.serve.wal.WriteAheadLog` directly.  With a
        WAL attached every insert/delete is persisted before the call
        returns, and a base snapshot is written at construction if the
        snapshot directory is empty — so crash recovery never needs
        in-memory state.
    """

    def __init__(
        self,
        index: LearnedSpatialIndex,
        config: ServeConfig | None = None,
        elsi_config: ELSIConfig | None = None,
        predictor: RebuildPredictor | None = None,
        index_factory=None,
        snapshots: "SnapshotManager | str | None" = None,
        generation: int = 0,
        wal: "WriteAheadLog | str | bool | None" = None,
    ) -> None:
        if index.bounds is None:
            raise ValueError("the served index must be built first")
        self.config = config or ServeConfig()
        self.elsi_config = elsi_config or ELSIConfig()
        self.stats = ServerStats()
        if isinstance(snapshots, (str, bytes)) or hasattr(snapshots, "__fspath__"):
            snapshots = SnapshotManager(snapshots)
        self.snapshots: SnapshotManager | None = snapshots
        # Every later generation's processor is this one's successor, so
        # the predictor and the factory carry over from here.
        processor = UpdateProcessor(
            index, self.elsi_config, predictor, index_factory=index_factory
        )
        self._gen = Generation(generation, processor)
        self._gen_swapped_at = time.time()
        # Serving-health gauges, recorded into the per-server registry so
        # stats_snapshot() exports them next to the counters/histograms.
        self._journal_gauge = self.stats.registry.gauge("serve.rebuild_journal_depth")
        self._age_gauge = self.stats.registry.gauge("serve.generation_age_seconds")
        self._swap_hist = self.stats.registry.histogram("serve.swap_seconds")
        self._health_gauge = self.stats.registry.gauge("serve.health_state")
        self._wal_gauge = self.stats.registry.gauge("serve.wal_depth")
        self._queue_gauge = self.stats.registry.gauge("serve.queue_depth")
        # Admission: one deque under one condition.  submit() checks,
        # counts and appends under it; whoever serves pops a whole batch
        # under it; close() flips ``_closed`` under it, so nothing is
        # enqueued after shutdown.  ``_parked`` says the dispatcher waits
        # in wait() un-notified; the first submission clears it and
        # notifies, so the rest of a flight (submitted before the
        # dispatcher gets the GIL) pays for no notify.  submit() and
        # _take_batch() hold the bare lock: neither waits, and a
        # Condition's ``with`` runs two Python-level methods, half a
        # microsecond more per request.
        self._admission_lock = threading.Lock()
        self._admission = threading.Condition(self._admission_lock)
        self._pending: "deque[Request]" = deque()
        self._parked = False
        # Held by whoever takes and serves a batch, the dispatcher or a
        # waiting client, so a taken batch is always being served: a
        # waiter that gets it while its reply is not done knows its
        # request is still queued.  Lock order: _serving -> _admission.
        self._serving = threading.Lock()
        # Every request's serve hook: one bound method, not one per submit.
        self._serve_hook = self._serve_waiting
        self._d = index.bounds.ndim
        self._stop = threading.Event()
        self._rebuild_wanted = threading.Event()
        self._update_lock = threading.Lock()
        # WAL appends (including their fsync) serialize on their own lock
        # so a slow fsync never blocks the generation-swap critical
        # section.  Lock order where nested: _update_lock -> _wal_lock.
        self._wal_lock = threading.Lock()
        self._rebuild_mutex = threading.Lock()
        self._rebuilding = False
        # (op, point, wal seq or None): ops applied while a rebuild was in
        # flight, replayed into the successor generation before the swap
        # and carried into its WAL under their original sequence numbers.
        self._pending_ops: list[tuple[str, np.ndarray, "int | None"]] = []
        self._updates_since_check = 0
        self._threads: list[threading.Thread] = []
        self._started = False
        self._closed = False
        self._health = HEALTHY
        #: The last exception a rebuild attempt raised (cleared on
        #: success); background-worker failures surface here and on the
        #: health gauge instead of dying silently.
        self.last_rebuild_error: BaseException | None = None
        if wal is True:
            if self.snapshots is None:
                raise ValueError("wal=True requires a snapshot manager/directory")
            wal = WriteAheadLog(
                self.snapshots.directory,
                generation=generation,
                fsync_policy=self.config.fsync_policy,
            )
        elif isinstance(wal, (str, bytes, Path)):
            wal = WriteAheadLog(
                wal, generation=generation, fsync_policy=self.config.fsync_policy
            )
        elif wal is False:
            wal = None
        self.wal: WriteAheadLog | None = wal
        # Durability bootstrap: the WAL only recovers *on top of* a
        # snapshot, so an empty snapshot directory gets the base
        # generation persisted up front.
        if self.snapshots is not None:
            if self.wal is not None and not self.snapshots.generations():
                self.save_snapshot()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(
        cls,
        snapshots: "SnapshotManager | str",
        wal: "str | bool | None" = None,
        salvage: bool = False,
        **kwargs,
    ) -> "IndexServer":
        """Open a server on the latest *loadable* snapshot (+ WAL tail).

        Corrupt or torn snapshots are quarantined and the loader falls
        back to the previous generation (see :meth:`SnapshotManager.load`).
        With ``wal`` set (``True`` = same directory as the snapshots),
        every write-ahead-log record from the loaded generation on is
        replayed in sequence order, so the recovered server reports every
        update that was acknowledged before the crash.

        Replay is strict by default: mid-file corruption of acknowledged
        records raises :class:`~repro.serve.errors.WALCorruption` rather
        than silently recovering without them (a torn *tail* is always
        dropped — it was never acknowledged).  ``salvage=True`` opts into
        best-effort recovery instead: the readable prefix of a corrupt
        log is kept, the loss is counted on ``wal.corrupt_records``, the
        log is cut back to that prefix before the first new append (so a
        later recovery, strict or not, replays every update acknowledged
        after this one), and the recovered server comes up ``degraded``.
        The server also comes up ``degraded`` when it had to fall back
        past the WAL's retention horizon (the fallback generation's log
        was already compacted away, so its deltas are unrecoverable —
        counted on ``wal.coverage_gaps``).
        """
        if not isinstance(snapshots, SnapshotManager):
            snapshots = SnapshotManager(snapshots)
        index, gen_id = snapshots.load()
        if not wal:
            return cls(index, snapshots=snapshots, generation=gen_id, **kwargs)
        wal_dir = snapshots.directory if wal is True else Path(wal)
        corrupt_counter = get_registry().counter("wal.corrupt_records")
        corrupt_before = corrupt_counter.value
        records = WriteAheadLog.replay_dir(
            wal_dir, from_generation=gen_id, salvage=salvage
        )
        salvage_dropped = corrupt_counter.value - corrupt_before
        if salvage_dropped:
            # What salvage dropped is gone: cut it off, so that no update
            # acknowledged from here on is appended behind it.
            WriteAheadLog.cut_corruption(wal_dir, gen_id)
        # Reopen at the highest generation any surviving log reached, so
        # new appends land *after* every replayed record in replay order.
        wal_gens = WriteAheadLog.generations_in(wal_dir)
        open_gen = max([gen_id, *wal_gens])
        # Every generation from the loaded snapshot to the newest log
        # must still have its log on disk; a gap means compaction already
        # deleted deltas this fallback needed.  (No logs at all is not a
        # gap — the directory may simply predate the WAL.)
        coverage_gap = (
            [g for g in range(gen_id, open_gen + 1) if g not in wal_gens]
            if wal_gens
            else []
        )
        server = cls(
            index, snapshots=snapshots, generation=open_gen, wal=str(wal_dir), **kwargs
        )
        processor = server._gen.processor
        for record in records:
            processor.apply(record.op, record.point)
        if coverage_gap:
            get_registry().counter("wal.coverage_gaps").inc(len(coverage_gap))
            server._set_health(DEGRADED)
        if salvage_dropped:
            server._set_health(DEGRADED)
        return server

    def start(self) -> "IndexServer":
        if self._closed:
            raise ServerClosed("this server has been closed")
        if self._started:
            return self
        self._started = True
        self._stop.clear()
        for target, name in (
            (self._dispatch_loop, "serve-dispatch"),
            (self._rebuild_loop, "serve-rebuild"),
        ):
            t = threading.Thread(target=target, name=name, daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def close(self) -> None:
        """Stop workers; queued requests are served before shutdown.
        After ``close()`` the server is dead: submissions and updates
        raise :class:`~repro.serve.errors.ServerClosed`."""
        with self._admission:
            if self._closed:
                return
            self._closed = True
            self._admission.notify_all()
        if self._started:
            self._stop.set()
            self._rebuild_wanted.set()
            for t in self._threads:
                t.join(timeout=30.0)
            self._threads = []
            self._started = False
        # Reject whatever is still queued (the dispatcher's join timed
        # out above) so no request is left to block until its wait() deadline.
        with self._admission:
            stranded = list(self._pending)
            self._pending.clear()
        for request in stranded:
            self.stats.note_shed("closed")
            request.reject(
                ServerClosed("server closed before this request was served")
            )
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "IndexServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Current generation id (bumps on every swap)."""
        return self._gen.gen_id

    @property
    def index(self) -> LearnedSpatialIndex:
        """The current generation's base index."""
        return self._gen.index

    @property
    def n_points(self) -> int:
        """Logical cardinality |D'| of the current generation."""
        return self._gen.processor.n_effective

    @property
    def health(self) -> str:
        """``healthy`` / ``degraded`` / ``read_only`` (see module docs)."""
        return self._health

    def _set_health(self, state: str) -> None:
        if state not in _HEALTH_LEVELS:
            raise ValueError(f"unknown health state {state!r}")
        if state != self._health:
            self.stats.registry.counter("serve.health_transitions", to=state).inc()
        self._health = state
        self._health_gauge.set(_HEALTH_LEVELS[state])

    def stats_snapshot(self) -> dict:
        """Exporter-format metrics dump: this server's registry (requests,
        batches, rebuilds, swap latency, journal depth, generation age,
        health, queue depth, WAL depth, shed/retry counters) merged with
        the process-wide registry (build/query/perf/fault metrics).
        ``{name: [{labels, kind, value}, ...]}``, JSON-able."""
        self._age_gauge.set(time.time() - self._gen_swapped_at)
        self._health_gauge.set(_HEALTH_LEVELS[self._health])
        self._queue_gauge.set(len(self._pending))
        if self.wal is not None:
            self._wal_gauge.set(self.wal.depth)
        out = dict(get_registry().export())
        out.update(self.stats.registry.export())
        return out

    # ------------------------------------------------------------------
    # Request submission (async) and sync conveniences
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Request:
        """Queue ``request`` and hand it back: it is its own reply
        (:meth:`~repro.serve.requests.Request.wait`)."""
        if request.d != self._d:
            raise ValueError(
                f"this server's index is {self._d}-dimensional, got a "
                f"{request.d}-dimensional {request.kind} request"
            )
        # acquire/release, not ``with``: the lock's context manager costs
        # a tenth of a microsecond more per request.
        lock = self._admission_lock
        lock.acquire()
        try:
            if self._closed:
                raise ServerClosed(
                    "server is closed; submissions after close() are rejected"
                )
            if not self._started:
                raise RuntimeError(
                    "server is not started; use start() or a with-block"
                )
            if len(self._pending) >= MAX_QUEUE_DEPTH:
                self.stats.note_shed("overloaded")
                raise ServerOverloaded(
                    f"request queue is at capacity ({MAX_QUEUE_DEPTH}); shedding "
                    "instead of queueing unboundedly"
                )
            self.stats.submitted[request.kind].inc()
            request._serve = self._serve_hook
            self._pending.append(request)
            if self._parked:
                self._parked = False
                self._admission.notify()
        finally:
            lock.release()
        return request

    # The per-query spellings are batches of one that resolve to the one
    # answer (a point that is not ``(d,)`` stays malformed as a batch).  A
    # batch request is the shard router's scatter unit: a shard worker
    # queues a whole routed sub-batch as one ``Request``, so queue and reply
    # bookkeeping is paid once per sub-batch, and the sub-batch is answered
    # from one generation like any micro-batch.  Every payload here is
    # copied (``np.array``): a caller may reuse its buffer as soon as submit
    # returns.  A window's corners come from its immutable ``Rect``.
    def submit_point(self, point: np.ndarray) -> Request:
        return self.submit(Request(POINT, np.array(point, np.float64)[None], 0, True))

    def submit_window(self, window: Rect) -> Request:
        return self.submit(
            Request(
                WINDOW,
                win_lo=window.lo_array[None, :],
                win_hi=window.hi_array[None, :],
                scalar=True,
            )
        )

    def submit_knn(self, point: np.ndarray, k: int) -> Request:
        return self.submit(Request(KNN, np.array(point, np.float64)[None], k, True))

    def submit_point_batch(self, points: np.ndarray) -> Request:
        """Membership of each ``(n, d)`` row: resolves to a bool array."""
        return self.submit(Request(POINT, np.array(points, dtype=np.float64)))

    def point_query(self, point: np.ndarray) -> bool:
        return self.submit_point(point).wait(QUERY_TIMEOUT)

    def window_query(self, window: Rect) -> np.ndarray:
        return self.submit_window(window).wait(QUERY_TIMEOUT)

    def knn_query(self, point: np.ndarray, k: int) -> np.ndarray:
        return self.submit_knn(point, k).wait(QUERY_TIMEOUT)

    # ------------------------------------------------------------------
    # Update ingestion
    # ------------------------------------------------------------------
    def insert(self, point: np.ndarray) -> None:
        """Ingest one insertion into the live generation (synchronous).

        With a WAL attached, the operation is durably appended before
        this returns — the acknowledgement *is* the durability point.
        While a rebuild is in flight the operation is also journalled and
        replayed into the successor generation before the swap.  Anything
        but a finite ``(d,)`` point raises ``ValueError`` before the WAL
        sees it.
        """
        self._apply_update("insert", point)

    def delete(self, point: np.ndarray) -> bool:
        return self._apply_update("delete", point)

    def _apply_update(self, op: str, point: np.ndarray):
        point = update_point(point, self._d)
        if self._closed:
            raise ServerClosed("server is closed; updates after close() are rejected")
        if self._health == READ_ONLY:
            self.stats.note_shed("read_only")
            raise ServerReadOnly(
                "server is read-only (rebuild retry budget exhausted); "
                "updates are rejected until a rebuild succeeds"
            )
        seq = None
        if self.wal is not None:
            # Append (and fsync, per policy) BEFORE applying: if this
            # raises, the update was never acknowledged and is simply
            # absent everywhere.  The append runs under its own lock so
            # a slow fsync never blocks the swap critical section.
            with self._wal_lock:
                wal_gen = self.wal.generation
                seq = self.wal.append(op, point)
            self.stats.note_wal_append()
        with self._update_lock:
            if self.wal is not None:
                if self.wal.generation != wal_gen:
                    # A generation swap rotated the log between our append
                    # and the apply, so the record sits only in the old
                    # log and missed the swap's carry.  Re-append it to
                    # the new log under the same sequence number (replay
                    # deduplicates) so compaction cannot drop it.
                    with self._wal_lock:
                        self.wal.append(op, point, seq=seq)
                self._wal_gauge.set(self.wal.depth)
            result = self._gen.processor.apply(op, point)
            if self._rebuilding:
                self._pending_ops.append((op, point, seq))
                self._journal_gauge.set(len(self._pending_ops))
            self._updates_since_check += 1
            due = self._updates_since_check >= self.elsi_config.f_u
            if due:
                self._updates_since_check = 0
        self.stats.note_update(op)
        if due and self.config.auto_rebuild:
            self._rebuild_wanted.set()
        return result

    # ------------------------------------------------------------------
    # Dispatch: micro-batch admission and execution
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while self._await_pending():
            with self._serving:
                # A waiter may have served the queue empty meanwhile.
                if batch := self._take_batch():
                    self._serve_batch(batch)

    def _await_pending(self) -> bool:
        """Block until something is queued; False once the server is
        closed and nothing is left to serve."""
        pending = self._pending
        with self._admission:
            while not pending:
                if self._closed:
                    return False
                self._parked = True
                self._admission.wait()
                self._parked = False
            return True

    def _take_batch(self) -> "list[Request]":
        """The queue's head, up to :data:`MAX_BATCH_SIZE` requests (empty
        when nothing is queued).  Only the holder of ``_serving`` takes."""
        pending = self._pending
        with self._admission_lock:
            return [pending.popleft() for _ in range(min(len(pending), MAX_BATCH_SIZE))]

    def _serve_waiting(self, reply: Request, deadline: "float | None") -> None:
        """A waiter's serve hook (:meth:`Request.wait`): unless another
        thread is serving, serve queued batches, oldest first, until
        ``reply`` is complete or ``deadline`` passes."""
        if not self._serving.acquire(blocking=False):
            return
        try:
            # Holding _serving, an incomplete reply is still queued, so
            # each batch taken here moves the queue towards it.
            while not reply.done() and (
                deadline is None or time.perf_counter() < deadline
            ):
                if batch := self._take_batch():
                    self._serve_batch(batch)
                else:
                    return
        finally:
            self._serving.release()

    def _serve_batch(self, batch: list[Request]) -> None:
        # One generation read per batch: every request in the batch is
        # answered from this snapshot, however long the batch takes and
        # whatever the rebuild worker swaps in meanwhile.
        gen = self._gen
        started = time.perf_counter()
        points: list[Request] = []
        windows: list[Request] = []
        by_k: dict[int, list[Request]] = {}
        for r in batch:
            if r.kind == POINT:
                points.append(r)
            elif r.kind == KNN:
                by_k.setdefault(r.k, []).append(r)
            else:
                windows.append(r)
        processor = gen.processor
        try:
            fault_check("serve.dispatch")
            with _span("serve.batch", size=len(batch), gen=gen.gen_id):
                fault_check("index.query")
                # One processor call per kind (per k for kNN) over every
                # request's rows; a scalar request is answered with its
                # row's answer, a batch request with the slice [a, b) of
                # its rows.  A group of scalar requests (served traffic)
                # takes the per-row answers as they are.  Points first:
                # they are released before the kNN and window work starts.
                if points:
                    hits = processor.point_queries(
                        np.concatenate([r.points for r in points])
                    )
                    answers = hits.tolist()
                    if not all(r.scalar for r in points):
                        answers = [
                            answers[a] if r.scalar else hits[a:b]
                            for r, a, b in _spans(points)
                        ]
                    self._release(points, started, gen.gen_id, answers)
                for k, members in by_k.items():
                    answers = processor.knn_queries(
                        np.concatenate([r.points for r in members]), k
                    )
                    if not all(r.scalar for r in members):
                        answers = [
                            answers[a] if r.scalar else answers[a:b]
                            for r, a, b in _spans(members)
                        ]
                    self._release(members, started, gen.gen_id, answers)
                if windows:
                    with _span("serve.window_batch", windows=len(windows)):
                        rows, counts = processor.window_rows(
                            np.concatenate([r.win_lo for r in windows]),
                            np.concatenate([r.win_hi for r in windows]),
                        )
                    cuts = [0, *np.cumsum(counts).tolist()]
                    self._release(windows, started, gen.gen_id, [
                        rows[cuts[a] : cuts[b]] if r.scalar
                        else (rows[cuts[a] : cuts[b]], counts[a:b])
                        for r, a, b in _spans(windows)
                    ])
        except BaseException as exc:  # noqa: BLE001 - must fail replies, not the worker
            # completed_at is the server's own mark of what it released.
            failed = [r for r in batch if r.completed_at is None]
            self._release(failed, started, gen.gen_id, error=exc)
            if not isinstance(exc, Exception):
                raise  # an interrupt still reaches a client that serves
        finally:
            self.stats.note_batch(len(batch), time.perf_counter() - started)

    def _release(
        self,
        group: list[Request],
        started: float,
        gen_id: int,
        values: "list | None" = None,
        error: "BaseException | None" = None,
    ) -> None:
        """Stamp a group of one batch once, count it, then release it:
        a client that holds its answer can already read it in the stats."""
        now = time.perf_counter()
        submitted = np.array([r.submitted_at for r in group])
        self.stats.note_replies(
            started - submitted, now - submitted, failed=error is not None
        )
        release(group, now, gen_id, values, error)

    # ------------------------------------------------------------------
    # Background rebuild + generation swap
    # ------------------------------------------------------------------
    def _rebuild_loop(self) -> None:
        while not self._stop.is_set():
            if not self._rebuild_wanted.wait(timeout=0.1):
                continue
            self._rebuild_wanted.clear()
            if self._stop.is_set():
                return
            try:
                if self._gen.processor.to_rebuild():
                    self.rebuild_now()
            except Exception as exc:  # noqa: BLE001 - the worker must survive
                # rebuild_now already retried, counted the failures, and
                # moved the health gauge; record and keep the worker alive.
                self.last_rebuild_error = exc
                continue

    def _backoff(self, attempt: int, budget_exhausted_error: Exception) -> None:
        """Sleep one jittered exponential-backoff step (interruptible)."""
        delay = min(RETRY_BASE_DELAY * (2 ** (attempt - 1)), RETRY_MAX_DELAY)
        delay *= 0.5 + random.random()  # jitter in [0.5x, 1.5x)
        if self._stop.wait(min(delay, RETRY_MAX_DELAY)):
            raise budget_exhausted_error

    def rebuild_now(self) -> float:
        """Rebuild on the logical data set and swap generations; returns
        the build seconds.  Safe to call from any thread; queries keep
        being served from the old generation throughout.

        Failures retry with exponential backoff + jitter up to
        :data:`MAX_RETRIES` times (health ``degraded`` while retrying, old
        generation still serving).  When the budget is exhausted the
        server degrades to ``read_only`` and this raises
        :class:`~repro.serve.errors.RebuildFailed` — callers see the
        real error as ``__cause__``, and a later successful call restores
        ``healthy``."""
        with self._rebuild_mutex:
            attempt = 0
            while True:
                try:
                    elapsed = self._rebuild_once()
                    break
                except Exception as exc:  # noqa: BLE001 - injected or real
                    attempt += 1
                    self.last_rebuild_error = exc
                    self.stats.note_rebuild_failure()
                    if attempt > MAX_RETRIES:
                        self._set_health(READ_ONLY)
                        raise RebuildFailed(
                            f"rebuild failed after {attempt} attempts "
                            f"(budget {MAX_RETRIES} retries): {exc}"
                        ) from exc
                    self._set_health(DEGRADED)
                    self.stats.note_retry("rebuild")
                    self._backoff(
                        attempt,
                        RebuildFailed("server stopped during rebuild retries"),
                    )
            self.last_rebuild_error = None
            self._set_health(HEALTHY)
        self.stats.note_rebuild(elapsed)
        if self.snapshots is not None:
            try:
                self.save_snapshot()
                # Compact, but keep the previous snapshot and every log from
                # its generation on: if this generation's snapshot later
                # turns out to be unloadable, recovery falls back to the
                # previous one and still needs its full WAL delta.  It is
                # generation - 1 unless a recovery had to fall back further.
                gen_id = self._gen.gen_id
                older = [g for g in self.snapshots.generations() if g < gen_id]
                if older:
                    self.snapshots.remove_through(older[-1])
                    if self.wal is not None:
                        self.wal.remove_through(older[-1])
            except SnapshotFailed:
                # The rebuild itself succeeded — keep serving, but flag
                # the lost durability compaction: recovery still works
                # from the older snapshot + the retained WAL files.
                self._set_health(DEGRADED)
        return elapsed

    def _rebuild_once(self) -> float:
        """One rebuild attempt: build off-path, replay the journal, swap."""
        with self._update_lock:
            old = self._gen
            points = old.processor.current_points()
            self._pending_ops = []
            self._rebuilding = True
        try:
            with _span("serve.rebuild", gen=old.gen_id, n=len(points)):
                fault_check("rebuild.worker")
                started = time.perf_counter()
                new_processor = old.processor.successor(points)
                elapsed = time.perf_counter() - started
                swap_started = time.perf_counter()
                with _span("serve.rebuild.swap") as swap_span:
                    with self._update_lock:
                        pending = self._pending_ops
                        depth = len(pending)
                        swap_span.set(journal_depth=depth)
                        with _span("serve.rebuild.replay", journal_depth=depth):
                            for op, p, _seq in pending:
                                new_processor.apply(op, p)
                        self._pending_ops = []
                        self._gen = Generation(old.gen_id + 1, new_processor)
                        self._gen_swapped_at = time.time()
                        if self.wal is not None:
                            with self._wal_lock:
                                # Fresh deltas against the new generation's
                                # base — which was built from the points
                                # captured *before* these journalled ops, so
                                # they must be carried into the new log (under
                                # their original sequence numbers; replay
                                # deduplicates against the retained old log)
                                # or compaction would drop acknowledged,
                                # fsynced updates.
                                self.wal.rotate(old.gen_id + 1)
                                for op, p, seq in pending:
                                    self.wal.append(op, p, seq=seq, sync=False)
                                if pending:
                                    self.wal.sync()
                            self._wal_gauge.set(self.wal.depth)
                self._swap_hist.record(time.perf_counter() - swap_started)
                self._journal_gauge.set(0)
        finally:
            with self._update_lock:
                self._rebuilding = False
        return elapsed

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def save_snapshot(self) -> "str | None":
        """Persist the current generation's base index (side-list updates
        pending since the last rebuild are not part of the snapshot —
        with a WAL attached they are covered by the log).

        Write failures retry with backoff up to :data:`MAX_RETRIES` times; raises
        :class:`~repro.serve.errors.SnapshotFailed` when exhausted."""
        if self.snapshots is None:
            raise RuntimeError("no SnapshotManager configured")
        gen = self._gen
        attempt = 0
        while True:
            try:
                path = self.snapshots.save(gen.index, gen.gen_id)
                break
            except Exception as exc:  # noqa: BLE001 - injected or real
                attempt += 1
                self.stats.note_snapshot_failure()
                if attempt > MAX_RETRIES:
                    raise SnapshotFailed(
                        f"snapshot save for generation {gen.gen_id} failed "
                        f"after {attempt} attempts: {exc}"
                    ) from exc
                self.stats.note_retry("snapshot")
                self._backoff(
                    attempt,
                    SnapshotFailed("server stopped during snapshot retries"),
                )
        self.stats.note_snapshot()
        return str(path)


def _spans(group: "list[Request]"):
    """``(request, a, b)``: each request of a kind-group with the rows
    ``[a, b)`` it owns in the group's one batch."""
    cuts = list(accumulate((r.size for r in group), initial=0))
    return zip(group, cuts, cuts[1:])
