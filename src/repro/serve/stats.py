"""The server's stats recorders: per-stage counters + latency histograms.

Everything here is cheap enough to record on the hot path (a lock, a few
counter increments, one bucket index per latency sample).  The
instruments live in a per-server :class:`~repro.obs.metrics.MetricsRegistry`
(so two servers in one process never mix their counts), and that
registry's export — ``ServerStats.registry.export()``, or merged with the
process-wide build/query metrics by ``IndexServer.stats_snapshot()`` — is
the one schema they are read in (:func:`repro.obs.metrics.series_sum`,
:func:`repro.obs.metrics.histogram_stat`).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs.metrics import Counter, Histogram, MetricsRegistry

__all__ = ["ServerStats"]


class _Labelled(dict):
    """The counters of one labelled series by label value, each bound on
    first use (an unseen label exports nothing): ``labelled[value]`` is
    one dict subscript once bound."""

    def __init__(self, registry: MetricsRegistry, name: str, label: str) -> None:
        super().__init__()
        self._registry = registry
        self._name = name
        self._label = label

    def __missing__(self, value: str) -> Counter:
        counter = self._registry.counter(self._name, **{self._label: value})
        self[value] = counter
        return counter


class ServerStats:
    """Counters + histograms accumulated across the server's stages.

    Stages: *admission* (requests enqueued, by kind), *batching* (batches
    dispatched, their sizes), *service* (per-batch execution time), and
    the end-to-end request latency.  Updates/rebuilds/snapshots have their
    own counters so tests can assert the background machinery ran.

    All instruments come from ``registry``, a per-instance
    :class:`~repro.obs.metrics.MetricsRegistry`, and are read from its
    export; ``batches`` / ``batched_requests`` are int views for
    the e2e layer pass, which differences them around a load.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.registry = MetricsRegistry()
        r = self.registry
        #: Requests admitted, by kind: ``submitted[kind].inc()``.  The
        #: server's admission section increments it under its own lock,
        #: which already serialises submissions.
        self.submitted = _Labelled(r, "serve.requests_submitted", "kind")
        self._shed = _Labelled(r, "serve.requests_shed", "reason")
        self._retries = _Labelled(r, "serve.retries", "op")
        self._completed = r.counter("serve.requests_completed")
        self._errors = r.counter("serve.request_errors")
        self._batches = r.counter("serve.batches")
        self._batched_requests = r.counter("serve.batched_requests")
        self._max_batch_size = r.gauge("serve.max_batch_size")
        self._inserts = r.counter("serve.updates", op="insert")
        self._deletes = r.counter("serve.updates", op="delete")
        self._rebuilds = r.counter("serve.rebuilds")
        self._rebuild_seconds = r.counter("serve.rebuild_seconds")
        self._generation_swaps = r.counter("serve.generation_swaps")
        self._snapshots_saved = r.counter("serve.snapshots_saved")
        self._rebuild_failures = r.counter("serve.rebuild_failures")
        self._snapshot_failures = r.counter("serve.snapshot_failures")
        self._wal_appends = r.counter("serve.wal_appends")
        # 1 µs .. ~134 s in doubling buckets: ``Histogram``'s default shape.
        self.queue_wait = r.histogram("serve.queue_wait_seconds")
        self.service = r.histogram("serve.service_seconds")
        self.latency = r.histogram("serve.request_latency_seconds")

    # ------------------------------------------------------------------
    def note_update(self, kind: str) -> None:
        with self._lock:
            if kind == "insert":
                self._inserts.inc()
            else:
                self._deletes.inc()

    def note_replies(
        self, queue_waits: np.ndarray, latencies: np.ndarray, failed: bool = False
    ) -> None:
        """A group of one batch's replies, counted *before* they are
        released, so whoever holds an answer finds it in the stats."""
        with self._lock:
            (self._errors if failed else self._completed).inc(len(latencies))
            Histogram.record_pair(self.queue_wait, self.latency, queue_waits, latencies)

    def note_batch(self, size: int, service_seconds: float) -> None:
        with self._lock:
            self._batches.inc()
            self._batched_requests.inc(size)
            if size > self._max_batch_size.value:
                self._max_batch_size.set(size)
            self.service.record(service_seconds)

    def note_rebuild(self, seconds: float) -> None:
        with self._lock:
            self._rebuilds.inc()
            self._rebuild_seconds.inc(seconds)
            self._generation_swaps.inc()

    def note_snapshot(self) -> None:
        with self._lock:
            self._snapshots_saved.inc()

    def note_shed(self, reason: str) -> None:
        """One request (or update) shed: ``overloaded`` (queue at
        capacity), ``closed`` (queued when the server closed), or
        ``read_only`` (update rejected in degraded-read-only state)."""
        with self._lock:
            self._shed[reason].inc()

    def note_retry(self, op: str) -> None:
        """One backoff retry of a background op (``rebuild``/``snapshot``)."""
        with self._lock:
            self._retries[op].inc()

    def note_rebuild_failure(self) -> None:
        with self._lock:
            self._rebuild_failures.inc()

    def note_snapshot_failure(self) -> None:
        with self._lock:
            self._snapshot_failures.inc()

    def note_wal_append(self) -> None:
        with self._lock:
            self._wal_appends.inc()

    # ------------------------------------------------------------------
    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def batched_requests(self) -> int:
        return int(self._batched_requests.value)
