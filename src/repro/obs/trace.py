"""Low-overhead structured tracing: nested spans with durations + attributes.

The one API that matters is :func:`span`::

    with span("build.method_select", n=len(keys)):
        ...

When tracing is *disabled* (the default), :func:`span` returns a shared
no-op context manager after a single boolean check — cheap enough to leave
at every instrumentation site, which is what keeps the served route
(``benchmarks/e2e/run.py --workload serve_zm_200k --smoke``) within the
<5 % overhead budget.  When enabled, each span records name, start timestamp, duration, attributes,
process/thread identity, and its parent (tracked per thread), into an
in-memory ring buffer and — when a sink path is configured — a JSON-lines
file, one object per completed span.

Enabling: set ``REPRO_TRACE=/path/to/trace.jsonl`` in the environment
(picked up at import), or call :func:`enable` programmatically (with no
path for ring-buffer-only tracing).

Worker processes: spans opened in a shard worker are collected with
:meth:`Tracer.capture` under a :meth:`Tracer.ambient` scope and shipped
back to the parent as plain dicts, where :meth:`Tracer.adopt` re-parents
and stores them.  Span ids embed the pid, so parent and worker ids never
collide.

Distributed traces: every span carries a ``trace_id`` — inherited from the
enclosing span (or the ambient context a worker was seeded with), else the
span's own id, so a trace id names the *root* of a causally-linked tree.
The shard router attaches ``(trace_id, parent_span_id, request_id)`` to
each scatter sub-request; the worker opens an ambient scope with both ids,
captures its spans, and ships them back for :meth:`Tracer.adopt` — which
stamps the caller's ``trace_id`` over the whole adopted batch — so one
request's tree spans every process that served it (see repro.shard).

The JSONL sink is line-atomic: each record is one ``os.write`` to an
``O_APPEND`` descriptor, so concurrent writers — scatter threads in one
process, or several worker processes streaming to the same file — never
interleave or tear a line.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

__all__ = [
    "ENV_TRACE",
    "SpanRecord",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "get_tracer",
    "new_request_id",
    "span",
    "traced",
]

ENV_TRACE = "REPRO_TRACE"

_id_counter = itertools.count(1)
_request_counter = itertools.count(1)


def _new_span_id() -> str:
    # The pid prefix keeps ids unique across fork/spawn worker processes,
    # whose counters start as copies of (or fresh from) the parent's.
    return f"{os.getpid():x}-{next(_id_counter)}"


def new_request_id() -> str:
    """A process-unique request id (attached to scatter spans so
    ``repro obs trace --request <id>`` can pull one request's tree)."""
    return f"req-{os.getpid():x}-{next(_request_counter)}"


class SpanRecord:
    """One completed span, ready for the ring buffer or a JSONL line."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "attrs",
        "pid",
        "thread",
        "trace_id",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: "str | None",
        start: float,
        duration: float,
        attrs: dict,
        pid: int,
        thread: str,
        trace_id: "str | None" = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.duration = duration
        self.attrs = attrs
        self.pid = pid
        self.thread = thread
        self.trace_id = trace_id

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
            "pid": self.pid,
            "thread": self.thread,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        return cls(
            name=data["name"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start=data["start"],
            duration=data["duration"],
            attrs=data.get("attrs", {}),
            pid=data.get("pid", 0),
            thread=data.get("thread", ""),
            trace_id=data.get("trace_id"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, {self.duration * 1e3:.3f}ms,"
            f" attrs={self.attrs})"
        )


class _NoopSpan:
    """Shared do-nothing span for the disabled fast path (and as the
    context manager of nested calls after a mid-span disable)."""

    __slots__ = ()
    span_id = None
    parent_id = None
    trace_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


_NOOP = _NoopSpan()


class _Span:
    """A live span: records itself on ``__exit__``."""

    __slots__ = (
        "_tracer", "name", "attrs", "span_id", "parent_id", "trace_id",
        "_start", "_t0",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = _new_span_id()
        self.parent_id: str | None = None
        self.trace_id: str | None = None
        self._start = 0.0
        self._t0 = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes to a span already in flight."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        traces = self._tracer._trace_stack()
        self.parent_id = stack[-1] if stack else None
        # A root span starts a new trace named after itself; nested spans
        # inherit, so every span in one causal tree shares one trace id.
        self.trace_id = traces[-1] if traces else self.span_id
        stack.append(self.span_id)
        traces.append(self.trace_id)
        self._start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        duration = time.perf_counter() - self._t0
        stack = self._tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        traces = self._tracer._trace_stack()
        if traces and traces[-1] == self.trace_id:
            traces.pop()
        if exc_info and exc_info[0] is not None:
            # Failure branches stay visible in the tree (retries, shard
            # deaths, read-only rejections) without call sites having to
            # tag them by hand.
            self.attrs.setdefault("error", getattr(exc_info[0], "__name__", "error"))
        self._tracer._record(
            SpanRecord(
                name=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start=self._start,
                duration=duration,
                attrs=self.attrs,
                pid=os.getpid(),
                thread=threading.current_thread().name,
                trace_id=self.trace_id,
            )
        )


class _Ambient:
    """Context manager that seeds a thread's parent id — and, for
    cross-process propagation, the trace id — for spans opened inside the
    scope (shard workers)."""

    __slots__ = ("_tracer", "_parent", "_trace")

    def __init__(
        self,
        tracer: "Tracer",
        parent_id: "str | None",
        trace_id: "str | None" = None,
    ) -> None:
        self._tracer = tracer
        self._parent = parent_id
        self._trace = trace_id if trace_id is not None else parent_id

    def __enter__(self) -> None:
        if self._parent is not None:
            self._tracer._stack().append(self._parent)
            self._tracer._trace_stack().append(self._trace)

    def __exit__(self, *exc_info) -> None:
        if self._parent is not None:
            stack = self._tracer._stack()
            if stack and stack[-1] == self._parent:
                stack.pop()
            traces = self._tracer._trace_stack()
            if traces and traces[-1] == self._trace:
                traces.pop()


class _Capture:
    """Collects spans recorded during its scope instead of publishing them.

    Used inside shard worker processes: tracing is force-enabled for
    the scope, the ring buffer and file sink are bypassed, and the caller
    ships the collected dicts back to the parent process.
    """

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self.records: list[SpanRecord] = []
        self._was_enabled = False

    def __enter__(self) -> "list[SpanRecord]":
        self._was_enabled = self._tracer._enabled
        self._tracer._enabled = True
        self._tracer._capture_sinks.append(self.records)
        return self.records

    def __exit__(self, *exc_info) -> None:
        self._tracer._capture_sinks.remove(self.records)
        self._tracer._enabled = self._was_enabled


class Tracer:
    """Owns the enabled flag, the ring buffer, and the optional file sink."""

    def __init__(self, ring_size: int = 8192) -> None:
        self._enabled = False
        self.ring_size = ring_size
        self._buffer: list[SpanRecord] = []
        self._lock = threading.Lock()
        # O_APPEND file descriptor for JSONL streaming: one os.write per
        # record keeps lines atomic under concurrent writers (threads here,
        # and other processes appending to the same path).
        self._sink: int | None = None
        self.sink_path: str | None = None
        self._local = threading.local()
        # Capture sinks are worker-process-local redirections (see _Capture);
        # a list so captures can nest (tests exercising capture-in-capture).
        self._capture_sinks: list[list[SpanRecord]] = []

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self, path: "str | None" = None, ring_size: "int | None" = None) -> None:
        """Turn tracing on, optionally streaming spans to a JSONL file."""
        with self._lock:
            if ring_size is not None:
                self.ring_size = ring_size
            if path is not None and path != self.sink_path:
                if self._sink is not None:
                    os.close(self._sink)
                self._sink = os.open(
                    path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
                self.sink_path = path
            self._enabled = True

    def disable(self) -> None:
        with self._lock:
            self._enabled = False
            if self._sink is not None:
                os.close(self._sink)
                self._sink = None
            self.sink_path = None

    def reset(self) -> None:
        """Clear the ring buffer (keeps the enabled state and sink)."""
        with self._lock:
            self._buffer = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _trace_stack(self) -> list:
        traces = getattr(self._local, "traces", None)
        if traces is None:
            traces = self._local.traces = []
        return traces

    def current_span_id(self) -> "str | None":
        stack = self._stack()
        return stack[-1] if stack else None

    def current_trace_id(self) -> "str | None":
        traces = self._trace_stack()
        return traces[-1] if traces else None

    def span(self, name: str, **attrs):
        """A context manager recording one span (no-op when disabled)."""
        if not self._enabled:
            return _NOOP
        return _Span(self, name, attrs)

    def ambient(self, parent_id: "str | None", trace_id: "str | None" = None):
        """Seed this thread's parent id (and trace id) for spans opened
        inside the scope.  Without an explicit ``trace_id`` the parent id
        doubles as the trace id — right for a worker whose parent span is
        itself a trace root, wrong otherwise, so in-process dispatchers
        pass the current trace id through."""
        return _Ambient(self, parent_id, trace_id=trace_id)

    def capture(self):
        """Collect spans locally instead of publishing (worker processes)."""
        return _Capture(self)

    # ------------------------------------------------------------------
    def _record(self, record: SpanRecord) -> None:
        if self._capture_sinks:
            self._capture_sinks[-1].append(record)
            return
        with self._lock:
            self._buffer.append(record)
            if len(self._buffer) > self.ring_size:
                del self._buffer[: len(self._buffer) - self.ring_size]
            if self._sink is not None:
                # A single write of the whole encoded line to an O_APPEND
                # fd: concurrent writers (other threads are already
                # serialised by this lock, but other *processes* are not)
                # cannot interleave or truncate it.
                os.write(
                    self._sink,
                    (json.dumps(record.to_dict()) + "\n").encode("utf-8"),
                )

    def adopt(
        self,
        records: "list[dict] | list[SpanRecord]",
        parent_id: "str | None" = None,
        trace_id: "str | None" = None,
    ) -> None:
        """Merge spans captured in a worker back into this tracer.

        Worker-root spans (no parent over there) are re-parented under
        ``parent_id`` so the trace tree stays connected; child links within
        the worker batch are preserved as-is (ids are pid-unique).  With a
        ``trace_id``, every adopted span is stamped with it — the whole
        batch becomes part of the caller's trace, including spans that were
        roots (their own traces) inside the worker.
        """
        batch_ids = set()
        parsed: list[SpanRecord] = []
        for r in records:
            rec = r if isinstance(r, SpanRecord) else SpanRecord.from_dict(r)
            batch_ids.add(rec.span_id)
            parsed.append(rec)
        for rec in parsed:
            if rec.parent_id is None or rec.parent_id not in batch_ids:
                rec.parent_id = parent_id
            if trace_id is not None:
                rec.trace_id = trace_id
            self._record(rec)

    def spans(self) -> list[SpanRecord]:
        """A snapshot of the ring buffer (oldest first)."""
        with self._lock:
            return list(self._buffer)

    def find(self, name: str) -> list[SpanRecord]:
        """Buffered spans with the given name (test convenience)."""
        return [r for r in self.spans() if r.name == name]


#: The process-wide tracer every instrumentation site talks to.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def span(name: str, **attrs):
    """Module-level :meth:`Tracer.span` on the process-wide tracer.

    The disabled fast path is one attribute check and returns a shared
    no-op object; instrumentation sites can use this unconditionally.
    """
    if not _TRACER._enabled:
        return _NOOP
    return _Span(_TRACER, name, attrs)


def traced(name: str, **attrs):
    """Decorator form: wrap the whole function call in a span."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _TRACER._enabled:
                return fn(*args, **kwargs)
            with _TRACER.span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def enabled() -> bool:
    """Whether tracing is on (the guard for non-span instrumentation)."""
    return _TRACER._enabled


def enable(path: "str | None" = None, ring_size: "int | None" = None) -> None:
    _TRACER.enable(path=path, ring_size=ring_size)


def disable() -> None:
    _TRACER.disable()


# Environment activation: REPRO_TRACE=path streams to a JSONL file.
_env_path = os.environ.get(ENV_TRACE)
if _env_path:
    enable(_env_path)
