"""Background fleet telemetry: a scrape loop over the shard workers.

:class:`FleetTelemetry` owns one daemon thread that, every ``interval``
seconds, asks each shard worker for its ``stats`` export and ``status``
and folds the answers into a cached per-shard table.  The router's
``stats_snapshot()`` serves :meth:`merged` — the latest per-shard
exports combined through :meth:`~repro.obs.metrics.MetricsRegistry.merge`
— and its ``overview()`` serves :meth:`overview`; a router whose poller
is not running calls :meth:`scrape_now` first, so there is one scrape
path whether or not the thread runs.

Staleness is first-class: every merged view carries a
``telemetry.scrape_age_seconds{shard=...}`` gauge (seconds since that
shard last answered a scrape) and a ``telemetry.shard_up{shard=...}``
marker (1 answered its most recent scrape, 0 did not).  A dead or wedged
shard keeps its **last known** export in the merged view — counters are
history, not liveness — while its age grows and its up-marker drops to
0, which is exactly how ``/metrics`` and ``repro obs top`` show a
down shard without losing the numbers it reported while alive.

Scrapes go through the handles directly (no retry loop, no respawn): the
poller observes the fleet, it never mutates it.  Recovery stays where it
belongs — on the query path's ``auto_respawn``.
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import MetricsRegistry, histogram_stat, series_sum
from repro.shard.errors import ShardTimeout, ShardUnavailable

__all__ = ["FleetTelemetry", "fleet_verdict"]

#: Per-shard scrape deadline: generous enough for a busy worker, short
#: enough that one wedged shard cannot stall a whole polling tick for
#: the router-configured request timeout (often 60 s).
SCRAPE_TIMEOUT = 10.0


def fleet_verdict(states: "list[str]") -> str:
    """``healthy`` — every shard healthy; ``degraded`` — at least one
    shard degraded/read-only/down but the fleet still answers; ``down`` —
    every shard unreachable (or there are none)."""
    if all(state == "down" for state in states):
        return "down"
    if all(state == "healthy" for state in states):
        return "healthy"
    return "degraded"


class FleetTelemetry:
    """Poll every shard's stats/status into a cached fleet view."""

    def __init__(self, router, interval: float = 1.0) -> None:
        self.router = router
        self.interval = interval
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._born = time.monotonic()
        # {shard_id: {"export", "status", "at", "up", "error"}} — "at" is
        # the monotonic stamp of the last *successful* scrape (None until
        # one lands), so age keeps growing while a shard is down.
        self._cells: dict[int, dict] = {
            handle.shard_id: {
                "export": None, "status": None,
                "at": None, "up": False, "error": None,
            }
            for handle in router.handles
        }

    # ------------------------------------------------------------------
    @property
    def interval(self) -> float:
        """Seconds between two polls of the background thread."""
        return self._interval

    @interval.setter
    def interval(self, seconds: float) -> None:
        if seconds <= 0:
            raise ValueError(f"interval must be positive, got {seconds}")
        self._interval = float(seconds)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "FleetTelemetry":
        """Prime the cache with one synchronous scrape, then poll."""
        if self.running:
            return self
        self._stop.clear()
        self.scrape_now()
        self._thread = threading.Thread(
            target=self._loop, name="fleet-telemetry", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(5.0, 2 * self.interval))
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.scrape_now()
            except Exception:  # noqa: BLE001 - the poller must not die
                self.registry.counter("telemetry.scrape_errors").inc()

    # ------------------------------------------------------------------
    def scrape_now(self) -> None:
        """One synchronous pass over every shard (also the test hook)."""
        for handle in self.router.handles:
            sid = handle.shard_id
            try:
                export = handle.request("stats", timeout=SCRAPE_TIMEOUT)
                status = handle.request("status", timeout=SCRAPE_TIMEOUT)
            except (ShardUnavailable, ShardTimeout) as exc:
                self.registry.counter(
                    "telemetry.scrape_failures", shard=sid
                ).inc()
                with self._lock:
                    cell = self._cells.setdefault(sid, {
                        "export": None, "status": None,
                        "at": None, "up": False, "error": None,
                    })
                    cell["up"] = False
                    cell["error"] = type(exc).__name__
                continue
            self.registry.counter("telemetry.scrapes", shard=sid).inc()
            with self._lock:
                self._cells[sid] = {
                    "export": export,
                    "status": status,
                    "at": time.monotonic(),
                    "up": True,
                    "error": None,
                }

    def _snapshot_cells(self) -> "tuple[dict, float]":
        now = time.monotonic()
        with self._lock:
            return {sid: dict(cell) for sid, cell in self._cells.items()}, now

    def _age(self, cell: dict, now: float) -> float:
        at = cell.get("at")
        return now - (at if at is not None else self._born)

    # ------------------------------------------------------------------
    def merged(self) -> dict:
        """The fleet metrics export from the cache: last known per-shard
        exports merged, plus per-shard staleness/up gauges, the poller's
        own scrape counters, and the router's registry (merged last, so
        its ``slo.*`` gauges and failure counters always win ties)."""
        merged = MetricsRegistry()
        cells, now = self._snapshot_cells()
        for sid in sorted(cells):
            cell = cells[sid]
            if cell["export"]:
                merged.merge(cell["export"])
            merged.gauge("telemetry.scrape_age_seconds", shard=sid).set(
                self._age(cell, now)
            )
            merged.gauge("telemetry.shard_up", shard=sid).set(
                1.0 if cell["up"] else 0.0
            )
        merged.merge(self.registry.export())
        merged.merge(self.router.registry.export())
        return merged.export()

    def overview(self) -> dict:
        """Dashboard rows: one dict per shard (health, generation,
        queue depth, completed-request counter for qps deltas, p99,
        CPU seconds, staleness) plus a fleet verdict and the router's
        SLO snapshot — the data contract of ``repro obs top``."""
        cells, now = self._snapshot_cells()
        shards: dict[int, dict] = {}
        for sid in sorted(cells):
            cell = cells[sid]
            export = cell["export"] or {}
            status = cell["status"] or {}
            health = status.get("health") if cell["up"] else "down"
            shards[sid] = {
                "up": bool(cell["up"]),
                "health": health or "down",
                "generation": status.get("generation"),
                "n_points": status.get("n_points"),
                "scrape_age_seconds": self._age(cell, now),
                "error": cell["error"],
                "requests_completed": series_sum(
                    export, "serve.requests_completed"
                ),
                "queue_depth": series_sum(export, "serve.queue_depth"),
                "generation_age_seconds": series_sum(
                    export, "serve.generation_age_seconds"
                ),
                "p99_seconds": histogram_stat(
                    export, "serve.request_latency_seconds", "p99"
                ),
                "cpu_seconds": series_sum(export, "worker.cpu_seconds"),
            }
        return {
            "overall": fleet_verdict([s["health"] for s in shards.values()]),
            "n_shards": len(shards),
            "shards": shards,
            "slo": self.router.slo.snapshot(),
        }
