"""Typed serving errors: shedding, lifecycle, and durability failures.

Clients need to distinguish "retry later" (:class:`ServerOverloaded`),
"not answered yet" (:class:`RequestTimeout`), "stop sending writes"
(:class:`ServerReadOnly`), and "this handle is dead"
(:class:`ServerClosed`) — a bare RuntimeError
can't carry that, so every failure mode the server sheds or rejects with
has its own type.  :class:`RebuildFailed` and :class:`SnapshotFailed`
surface background-worker failures to ``rebuild_now()`` callers and the
health gauge instead of dying silently in the worker thread.
"""

from __future__ import annotations

__all__ = [
    "RebuildFailed",
    "RequestTimeout",
    "ServerClosed",
    "ServerOverloaded",
    "ServerReadOnly",
    "SnapshotFailed",
    "WALCorruption",
]


class ServerClosed(RuntimeError):
    """The server has been closed; submissions and updates are rejected."""


class ServerOverloaded(RuntimeError):
    """Admission control shed the request: the queue is at capacity."""


class RequestTimeout(TimeoutError):
    """A wait on a request ran out of time (``Request.wait``); the request
    itself is not withdrawn and is still answered."""


class ServerReadOnly(RuntimeError):
    """Updates are rejected: the server degraded to read-only serving."""


class RebuildFailed(RuntimeError):
    """A rebuild exhausted its retry budget; the old generation serves on."""


class SnapshotFailed(RuntimeError):
    """A snapshot save exhausted its retry budget."""


class WALCorruption(ValueError):
    """A write-ahead-log record failed its integrity check mid-file."""
