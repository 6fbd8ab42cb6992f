"""The shard worker: one process, one :class:`IndexServer`, one keyspace range.

Workers are started with the ``spawn`` multiprocessing context — a fresh
interpreter, **nothing inherited from the parent by fork** — so every bit
of configuration a shard needs travels explicitly in its
:class:`WorkerSpec`: the per-shard directory (snapshots + WAL + build
points), the index kind and build method, and ELSI/serve config kwargs.

The control protocol over the duplex pipe is one request, one response:
the parent sends ``(seq, timeout, command, trace, *payload)`` tuples and
the worker answers ``(seq, "ok", result, spans)`` or ``(seq, "err",
exception, spans)``.  ``trace`` is the cross-process trace context the
router attaches to every scatter (``None`` when tracing is off — the
worker then skips span capture entirely, keeping the disabled fast
path); with a context present the command runs under
``Tracer.capture()`` inside an ambient ``serve.dispatch`` span, and the
captured span dicts ship back in the reply's ``spans`` slot — on error
replies too, so failed branches stay visible in the merged tree.  A
query command submits its request and waits on it in this one thread,
which serves the batch itself unless the server's dispatcher took it
first (``IndexServer``: a waiting thread serves its own request), so the
batch's spans nest under ``serve.dispatch`` in the caller's trace.  The
echoed sequence id lets the parent discard stale replies left over
from timed-out requests, and the server's typed errors
(``ServerOverloaded``, ``ServerReadOnly``, ...) pickle cleanly and cross
the pipe as themselves, so the router handles the exact single-server
failure vocabulary.  Batch commands wait on the server's reply for
slightly *less* than the parent's ``timeout`` (see :func:`_reply_wait`),
so a queued-but-healthy server surfaces its typed ``RequestTimeout``
over the pipe before the parent gives up and poisons the handle.  Query
commands carry whole sub-batches as arrays — ``("point_batch", points)``,
``("window_batch", lo, hi)`` with one ``(w, d)`` array per corner,
``("knn_batch", points, k)`` — and each is one queued server ``Request``
of its kind.  Window and kNN answers come back packed
(:class:`PackedRows`): one flat ``(m, d)`` array of rows plus a row count
per query, so the pipe pickles two arrays per sub-batch whatever its
size.  A sub-batch arrives unpickled, an array nothing else holds, so
the worker builds the server's ``Request`` around it as it came, with no
copy, and a window sub-batch's ``(rows, counts)`` answer comes back as it
left.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.serve.requests import KNN, POINT, WINDOW, Request

__all__ = [
    "WorkerSpec",
    "shard_worker_main",
]

#: File the parent writes a shard's build partition to (and the worker
#: reads it back from on a fresh build).
BUILD_POINTS_FILE = "build_points.npy"


@dataclass
class WorkerSpec:
    """Everything one shard worker needs, explicitly (picklable, no
    closures — the spawn context re-imports this module in the child).

    Attributes
    ----------
    shard_id:
        This shard's index in the shard map.
    directory:
        Per-shard directory: ``build_points.npy``, snapshots
        (``gen-NNNNNN.npz``) and WAL files all live here.
    index / method:
        Index kind (``ZM``/``ML``/``LISA``/``Flood``) and ELSI build
        method, resolved in the worker.
    elsi / serve:
        Keyword arguments for ``ELSIConfig`` and ``ServeConfig``.
    recover:
        ``True`` opens the server with ``IndexServer.from_snapshot(...,
        wal=True)`` (crash recovery / cluster reopen) instead of building
        from ``build_points.npy``.

    Every shard write-ahead-logs its updates (the zero acknowledged-loss
    recovery contract).
    """

    shard_id: int
    directory: str
    index: str = "ZM"
    method: str = "SP"
    elsi: dict = field(default_factory=dict)
    serve: dict = field(default_factory=dict)
    recover: bool = False


def _open_server(spec: WorkerSpec):
    """Build (or recover) this shard's :class:`IndexServer`."""
    from repro.core import ELSIConfig, ELSIModelBuilder
    from repro.indices import LEARNED_INDICES
    from repro.serve.server import IndexServer, ServeConfig

    index_cls = LEARNED_INDICES[spec.index]
    config = ELSIConfig(**spec.elsi)
    builder = ELSIModelBuilder(config, method=spec.method)
    factory = lambda: index_cls(builder=builder)  # noqa: E731
    serve_config = ServeConfig(**spec.serve)
    directory = Path(spec.directory)
    if spec.recover:
        return IndexServer.from_snapshot(
            directory,
            wal=True,
            config=serve_config,
            elsi_config=config,
            index_factory=factory,
        )
    points = np.load(directory / BUILD_POINTS_FILE)
    index = index_cls(builder=builder)
    index.build(points)
    return IndexServer(
        index,
        serve_config,
        elsi_config=config,
        index_factory=factory,
        snapshots=str(directory),
        wal=True,
    )


def _status(server) -> dict:
    return {
        "health": server.health,
        "generation": server.generation,
        "n_points": server.n_points,
    }


def shard_worker_main(spec: WorkerSpec, conn) -> None:
    """Process entry point: open the shard's server, answer the pipe.

    The first message is always ``("ready", status)`` or ``("err", exc)``
    — the parent's spawn blocks on it, so a shard that fails to build or
    recover surfaces its exception instead of hanging the cluster.
    """
    try:
        server = _open_server(spec)
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        conn.send(("err", exc))
        conn.close()
        return
    server.start()
    conn.send(("ready", _status(server)))
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            seq, timeout, command, trace = (
                message[0], message[1], message[2], message[3],
            )
            payload = message[4:]
            if command == "close":
                conn.send((seq, "ok", None, None))
                break
            captured: list = []
            try:
                if trace is None:
                    result = _dispatch(server, spec, command, payload, timeout)
                else:
                    result = _traced_dispatch(
                        server, spec, command, payload, timeout, trace, captured
                    )
                conn.send((seq, "ok", result, _ship_spans(trace, captured)))
            except BaseException as exc:  # noqa: BLE001 - errors cross the pipe
                conn.send((seq, "err", exc, _ship_spans(trace, captured)))
    finally:
        server.close()
        conn.close()


def _ship_spans(trace, captured: list) -> "list[dict] | None":
    """Captured spans as picklable dicts (None when no trace context)."""
    if trace is None:
        return None
    return [record.to_dict() for record in captured]


def _traced_dispatch(
    server, spec: WorkerSpec, command: str, payload: tuple, timeout: float,
    trace: dict, captured: list,
) -> object:
    """Run one command under span capture, ambient-seeded with the
    caller's trace context, inside a ``serve.dispatch`` span.

    ``captured`` is filled in place so spans survive an exception
    (the dispatch span itself exits tagged ``error=...`` and still
    ships on the error reply).
    """
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    with tracer.capture() as records:
        try:
            with tracer.ambient(
                trace.get("parent_span_id"), trace_id=trace.get("trace_id")
            ):
                with tracer.span(
                    "serve.dispatch",
                    command=command,
                    shard=spec.shard_id,
                    request_id=trace.get("request_id"),
                ):
                    return _dispatch(server, spec, command, payload, timeout)
        finally:
            captured.extend(records)


def _reply_wait(timeout: float) -> float:
    """How long a batch command waits on the server's reply: the
    parent's deadline minus a margin, so a slow-but-alive server answers
    with a typed ``RequestTimeout`` that still reaches the parent in
    time instead of wedging the pipe past the parent's deadline."""
    return max(0.05, timeout - max(0.5, 0.1 * timeout))


class PackedRows(NamedTuple):
    """Window / kNN answers of one sub-batch as they cross the pipe: the
    only place that knows the layout.  The router reads ``counts`` and
    :meth:`split`."""

    #: ``(m, d)`` float64: every query's rows back to back.
    rows: np.ndarray
    #: ``(queries,)`` int64: rows per query, in query order.
    counts: np.ndarray

    @classmethod
    def pack(cls, results: "list[np.ndarray]", d: int) -> "PackedRows":
        """One array per query (kNN answers), packed."""
        counts = np.fromiter(map(len, results), np.int64, len(results))
        filled = [r for r in results if len(r)]
        flat = np.concatenate(filled) if filled else np.empty((0, d))
        return cls(np.asarray(flat, dtype=np.float64), counts)

    def split(self) -> "list[np.ndarray]":
        """One ``(m_j, d)`` array per query: views of ``rows``, no copies."""
        cuts = [0, *np.cumsum(self.counts).tolist()]
        return [self.rows[a:b] for a, b in zip(cuts, cuts[1:])]


def _dispatch(server, spec: WorkerSpec, command: str, payload: tuple, timeout: float):
    wait = _reply_wait(timeout)
    if command == "point_batch":
        (points,) = payload
        return np.asarray(server.submit(Request(POINT, points)).wait(wait))
    if command == "window_batch":
        win_lo, win_hi = payload
        request = Request(WINDOW, win_lo=win_lo, win_hi=win_hi)
        return PackedRows(*server.submit(request).wait(wait))
    if command == "knn_batch":
        points, k = payload
        return PackedRows.pack(
            server.submit(Request(KNN, points, k)).wait(wait), points.shape[1]
        )
    if command == "insert":
        (point,) = payload
        server.insert(point)
        return True
    if command == "delete":
        (point,) = payload
        return server.delete(point)
    if command == "rebuild":
        server.rebuild_now()
        return _status(server)
    if command == "stats":
        snapshot = server.stats_snapshot()
        # Shipped in export format so MetricsRegistry.merge keeps it as a
        # per-shard series: cumulative process CPU (user + system), whose
        # scrape-to-scrape deltas separate real parallel speedup from
        # batching (the e2e benchmark's ``shard.cpu_vs_wall``).
        cpu = os.times()
        snapshot["worker.cpu_seconds"] = [
            {
                "labels": {"shard": str(spec.shard_id)},
                "kind": "gauge",
                "value": float(cpu.user + cpu.system),
                "updated_at": time.time(),
            }
        ]
        return snapshot
    if command == "status":
        return _status(server)
    raise ValueError(f"unknown shard worker command {command!r}")
