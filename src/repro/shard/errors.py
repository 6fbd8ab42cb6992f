"""Typed errors raised by the sharded serving tier.

These compose with (and wrap) the single-server failure vocabulary from
:mod:`repro.serve.errors`: a worker process forwards the server's typed
errors (``ServerOverloaded``, ``ServerReadOnly``, ...) verbatim over the
control pipe, and the router either handles them (retry, re-route,
respawn) or re-raises them annotated with the shard they came from.
"""

from __future__ import annotations

__all__ = [
    "ShardError",
    "ShardTimeout",
    "ShardUnavailable",
]


class ShardError(RuntimeError):
    """Base class for shard-tier failures; the message names the shard."""


class ShardUnavailable(ShardError):
    """The shard's worker process is dead or unreachable.

    For idempotent queries the router recovers transparently (respawn
    from the shard's snapshots + WAL, then retry); for updates this
    surfaces to the caller — an update is applied at most once, never
    blindly retried across a crash boundary.
    """


class ShardTimeout(ShardError):
    """A shard did not answer within the router's request timeout."""
