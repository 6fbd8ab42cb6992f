"""Parent-side handle to one shard worker process.

A handle owns the process object and the parent end of the control pipe,
serialising requests on a per-handle lock (the protocol is strictly one
request, one response).  Every request carries a monotonically
increasing sequence id that the worker echoes back on its reply, so a
response can never be attributed to the wrong request: replies whose
sequence id doesn't match the in-flight request are stale leftovers of
an earlier timed-out call and are discarded on receipt.

Trace propagation: a request optionally carries a trace context —
``{"trace_id", "parent_span_id", "request_id"}`` — in the fixed fourth
slot of the request tuple (``None`` when tracing is off, so the worker
skips span capture entirely).  The worker runs the command under
``Tracer.capture()`` and ships the captured span dicts back in the
reply's fourth slot; the handle ``adopt()``s them into this process's
tracer under the caller's span, stamped with the caller's trace id — so
one scatter renders as one tree across every worker process it touched.
Spans travel on *error* replies too: a failed sub-request still shows
its worker-side branch.

Timeouts **poison** the handle.  When a request deadline passes, the
worker still owes the reply — it may arrive on the pipe at any later
moment — so the handle refuses further traffic (``request`` raises
:class:`ShardUnavailable`, ``alive()`` reports ``False``) until
:meth:`respawn` replaces both the worker process (killed if still
running) and the pipe.  That is what keeps a wedged-but-alive worker
from silently shifting every subsequent reply off by one.

Death detection is built into every receive: when the pipe goes EOF or
the deadline passes while the process is no longer alive, the call
raises :class:`ShardUnavailable` — the signal the router's recovery path
keys on.  :meth:`respawn` restarts the worker with ``recover=True`` so
the replacement comes back from its own snapshots + WAL replay
(``IndexServer.from_snapshot(..., wal=True)``) rather than a fresh
(state-losing) build.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time

from repro.obs.trace import get_tracer
from repro.shard.errors import ShardTimeout, ShardUnavailable
from repro.shard.worker import WorkerSpec, shard_worker_main

__all__ = ["ShardHandle"]

#: Granularity of the poll loop that watches both the pipe and the
#: process liveness while waiting for a response.
_POLL_SECONDS = 0.05
#: How long a (re)spawned worker may take to build or recover its index
#: and report ready.
START_TIMEOUT = 300.0


class ShardHandle:
    """Spawn, talk to, respawn, and stop one shard worker."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        # spawn: a fresh interpreter that inherits nothing by fork.
        self._ctx = mp.get_context("spawn")
        self._lock = threading.RLock()
        self._proc = None
        self._conn = None
        self._ready_status: dict | None = None
        self._seq = 0
        self._poisoned = False
        self._spawn()

    # ------------------------------------------------------------------
    @property
    def shard_id(self) -> int:
        return self.spec.shard_id

    def alive(self) -> bool:
        """Whether the handle can take requests.  A poisoned handle (a
        request timed out, leaving its reply un-consumed on the pipe)
        reports ``False`` even while the wedged worker process still
        runs — the router's respawn path treats both the same way."""
        with self._lock:
            return (
                not self._poisoned
                and self._proc is not None
                and self._proc.is_alive()
            )

    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(self.spec, child_conn),
            name=f"shard-{self.spec.shard_id:03d}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._proc = proc
        self._conn = parent_conn
        self._poisoned = False
        kind, payload = self._recv_raw(START_TIMEOUT)
        if kind == "err":
            self._reap()
            raise payload
        if kind != "ready":  # pragma: no cover - protocol invariant
            self._reap()
            raise ShardUnavailable(
                f"shard {self.shard_id} sent {kind!r} instead of the ready "
                "handshake",
            )
        self._ready_status = payload

    def _reap(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._proc is not None:
            if self._poisoned and self._proc.is_alive():
                # A wedged worker never exits on its own — don't wait for
                # a graceful join that cannot come.
                self._proc.kill()
            self._proc.join(timeout=5.0)
            if self._proc.is_alive():  # pragma: no cover - last resort
                self._proc.kill()
                self._proc.join(timeout=5.0)
            self._proc = None

    def _recv_raw(self, timeout: float):
        """Receive one message, watching for worker death the whole time."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = _POLL_SECONDS
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardTimeout(
                        f"shard {self.shard_id} did not answer within "
                        f"{timeout:.1f}s",
                    )
                wait = min(wait, remaining)
            try:
                if self._conn.poll(wait):
                    return self._conn.recv()
            except (EOFError, OSError):
                raise ShardUnavailable(
                    f"shard {self.shard_id} worker died mid-request "
                    f"(exitcode {self._proc.exitcode})",
                ) from None
            if not self._proc.is_alive() and not self._conn.poll(0):
                raise ShardUnavailable(
                    f"shard {self.shard_id} worker is dead "
                    f"(exitcode {self._proc.exitcode})",
                )

    def _recv_response(self, seq: int, timeout: float):
        """Receive the ``(seq, kind, result, spans)`` reply matching
        ``seq``, discarding stale replies left over from earlier timed-out
        requests (their sequence ids can never match)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            message = self._recv_raw(remaining)
            if len(message) == 4 and message[0] == seq:
                return message[1], message[2], message[3]

    # ------------------------------------------------------------------
    def request(
        self, command: str, *payload, timeout: float = 60.0, trace=None
    ):
        """Send ``(seq, timeout, command, trace, *payload)``; return the
        result or raise the worker's exception (or
        :class:`ShardUnavailable` on death / a poisoned handle,
        :class:`ShardTimeout` on deadline).

        ``trace`` is the optional cross-process trace context dict
        (``trace_id`` / ``parent_span_id`` / ``request_id``); when set,
        worker spans shipped on the reply are adopted into this process's
        tracer under ``parent_span_id`` before the result (or the
        worker's error) is surfaced."""
        with self._lock:
            if self._poisoned:
                raise ShardUnavailable(
                    f"shard {self.shard_id} handle is poisoned after a "
                    "request timeout (its reply is still owed on the pipe); "
                    "respawn before further requests",
                )
            if self._proc is None or not self._proc.is_alive():
                raise ShardUnavailable(
                    f"shard {self.shard_id} has no live worker",
                )
            self._seq += 1
            seq = self._seq
            try:
                self._conn.send((seq, timeout, command, trace, *payload))
            except (BrokenPipeError, OSError):
                raise ShardUnavailable(
                    f"shard {self.shard_id} worker died before the request "
                    "could be sent",
                ) from None
            try:
                kind, result, spans = self._recv_response(seq, timeout)
            except ShardTimeout:
                # The worker still owes this reply; if we kept using the
                # pipe it would be returned to the *next* request.  Refuse
                # all further traffic until respawn() replaces the worker
                # and the pipe.
                self._poisoned = True
                raise
        if trace is not None and spans:
            get_tracer().adopt(
                spans,
                parent_id=trace.get("parent_span_id"),
                trace_id=trace.get("trace_id"),
            )
        if kind == "err":
            raise result
        return result

    def respawn(self) -> dict:
        """Replace a dead (or wedged) worker; recovery comes from disk.

        A poisoned worker that is still running is killed first — its
        pipe may carry a stale reply that must never be read.  The
        replacement always opens with ``recover=True`` — snapshots +
        WAL replay — so every update the dead worker acknowledged is
        present in the replacement.
        """
        with self._lock:
            self._reap()
            self.spec.recover = True
            self._spawn()
            return dict(self._ready_status or {})

    def close(self) -> None:
        with self._lock:
            if self._proc is None:
                return
            if self._proc.is_alive() and not self._poisoned:
                self._seq += 1
                try:
                    self._conn.send((self._seq, 30.0, "close", None))
                    self._recv_response(self._seq, 30.0)
                except (ShardUnavailable, ShardTimeout, BrokenPipeError, OSError):
                    # Graceful close failed — make _reap kill rather than
                    # wait out a join that may never come.
                    self._poisoned = True
            self._reap()
