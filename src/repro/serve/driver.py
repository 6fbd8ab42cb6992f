"""Closed-loop workload driver for :class:`~repro.serve.server.IndexServer`.

No network dependency: client threads in this process submit requests
straight into the server's queue and block on the replies.  Each client
keeps ``pipeline`` requests outstanding (submit a window of async
requests, then wait for all of them), so the dispatcher actually sees
concurrent demand and can form micro-batches — a strictly closed loop
with a handful of threads would cap every batch at the client count.

The same module provides the unbatched baseline the benchmark compares
against: one thread calling the update processor's per-query methods
(batches of one) one request at a time, i.e. serving without the serving
subsystem.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.requests import KNN, POINT, WINDOW
from repro.serve.server import IndexServer
from repro.spatial.rect import Rect

__all__ = ["DriverResult", "ServeWorkload", "run_baseline", "run_closed_loop"]


@dataclass(frozen=True)
class ServeWorkload:
    """A pre-generated request stream (shared by server and baseline runs).

    ``kinds`` holds one of the request-kind strings per operation;
    ``points`` the query point (or window centre) per operation; ``windows``
    a Rect for window ops (None elsewhere); ``k`` the neighbour count for
    kNN ops.
    """

    kinds: list
    points: np.ndarray
    windows: list
    k: int = 10

    def __len__(self) -> int:
        return len(self.kinds)

    @classmethod
    def points_only(cls, points: np.ndarray) -> "ServeWorkload":
        pts = np.asarray(points, dtype=np.float64)
        return cls(kinds=[POINT] * len(pts), points=pts, windows=[None] * len(pts))

    @classmethod
    def mixed(
        cls,
        data: np.ndarray,
        n_requests: int,
        point_fraction: float = 0.8,
        knn_fraction: float = 0.1,
        k: int = 10,
        window_side: float = 0.05,
        seed: int = 0,
    ) -> "ServeWorkload":
        """Points/kNN/windows drawn from the indexed data distribution."""
        rng = np.random.default_rng(seed)
        data = np.asarray(data, dtype=np.float64)
        idx = rng.integers(0, len(data), size=n_requests)
        pts = data[idx].copy()
        draws = rng.random(n_requests)
        kinds: list = []
        windows: list = []
        for i in range(n_requests):
            if draws[i] < point_fraction:
                kinds.append(POINT)
                windows.append(None)
            elif draws[i] < point_fraction + knn_fraction:
                kinds.append(KNN)
                windows.append(None)
            else:
                kinds.append(WINDOW)
                windows.append(Rect.centered(pts[i], window_side))
        return cls(kinds=kinds, points=pts, windows=windows, k=k)


@dataclass
class DriverResult:
    """Aggregate outcome of one driver run."""

    n_requests: int
    elapsed_seconds: float
    errors: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Requests per second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.n_requests / self.elapsed_seconds


def _submit(server: IndexServer, workload: ServeWorkload, i: int):
    kind = workload.kinds[i]
    if kind == POINT:
        return server.submit_point(workload.points[i])
    if kind == KNN:
        return server.submit_knn(workload.points[i], workload.k)
    return server.submit_window(workload.windows[i])


def run_closed_loop(
    server: IndexServer,
    workload: ServeWorkload,
    clients: int = 8,
    pipeline: int = 64,
    timeout: float = 60.0,
) -> DriverResult:
    """Drive the server with ``clients`` threads, each keeping up to
    ``pipeline`` requests outstanding, until the workload is exhausted.

    Operations are sharded round-robin across clients so every run issues
    the exact same request multiset regardless of thread scheduling.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if pipeline < 1:
        raise ValueError(f"pipeline must be >= 1, got {pipeline}")
    errors = [0] * clients
    start_barrier = threading.Barrier(clients + 1)

    def client(cid: int) -> None:
        my_ops = range(cid, len(workload), clients)
        start_barrier.wait()
        window: list = []
        for i in my_ops:
            window.append(_submit(server, workload, i))
            if len(window) >= pipeline:
                for reply in window:
                    try:
                        reply.wait(timeout)
                    except Exception:  # noqa: BLE001 - tallied, not fatal
                        errors[cid] += 1
                window = []
        for reply in window:
            try:
                reply.wait(timeout)
            except Exception:  # noqa: BLE001
                errors[cid] += 1

    threads = [
        threading.Thread(target=client, args=(cid,), name=f"serve-client-{cid}")
        for cid in range(clients)
    ]
    for t in threads:
        t.start()
    start_barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    return DriverResult(
        n_requests=len(workload),
        elapsed_seconds=elapsed,
        errors=sum(errors),
        stats=server.stats.snapshot(),
    )


def run_baseline(processor, workload: ServeWorkload) -> DriverResult:
    """One-request-at-a-time serving: a single loop over the per-query
    APIs, no queue, no batching.  This is the benchmark's denominator."""
    started = time.perf_counter()
    for i in range(len(workload)):
        kind = workload.kinds[i]
        if kind == POINT:
            processor.point_query(workload.points[i])
        elif kind == KNN:
            processor.knn_query(workload.points[i], workload.k)
        else:
            processor.window_query(workload.windows[i])
    elapsed = time.perf_counter() - started
    return DriverResult(n_requests=len(workload), elapsed_seconds=elapsed)
