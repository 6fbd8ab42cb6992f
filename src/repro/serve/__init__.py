"""The serving subsystem: micro-batched concurrent query serving.

Built indices answer requests through an :class:`IndexServer`, which
coalesces queued point/window/kNN requests, each a batch, into
micro-batches and answers each kind with one vectorised call; rebuilds
happen in a background worker and swap in atomically behind a generation
pointer; snapshots persist generations through
:mod:`repro.storage.persist`, and a :class:`WriteAheadLog` makes
acknowledged updates durable across crashes (see docs/serving.md,
"Durability and failure modes").
"""

from repro.serve.errors import (
    RebuildFailed,
    RequestTimeout,
    ServerClosed,
    ServerOverloaded,
    ServerReadOnly,
    SnapshotFailed,
    WALCorruption,
)
from repro.serve.requests import KINDS, KNN, POINT, WINDOW, Request
from repro.serve.server import (
    DEGRADED,
    HEALTHY,
    READ_ONLY,
    Generation,
    IndexServer,
    ServeConfig,
)
from repro.serve.snapshots import SnapshotManager
from repro.serve.stats import ServerStats
from repro.serve.wal import FSYNC_POLICIES, WALRecord, WriteAheadLog

__all__ = [
    "DEGRADED",
    "FSYNC_POLICIES",
    "Generation",
    "HEALTHY",
    "IndexServer",
    "KINDS",
    "KNN",
    "POINT",
    "READ_ONLY",
    "RebuildFailed",
    "Request",
    "RequestTimeout",
    "ServeConfig",
    "ServerClosed",
    "ServerOverloaded",
    "ServerReadOnly",
    "ServerStats",
    "SnapshotFailed",
    "SnapshotManager",
    "WALCorruption",
    "WALRecord",
    "WINDOW",
    "WriteAheadLog",
]
