"""Request and reply types flowing through the serving queue.

A request is one client operation (point membership, window, kNN, or an
update) plus a :class:`Reply` — a miniature single-assignment future the
dispatcher completes once the micro-batch containing the request has been
answered.  Replies record submission/completion timestamps and the
generation that answered them, which is what the swap-under-load tests
assert on: every reply names exactly one generation, and all replies of
one micro-batch name the same one.

:meth:`Request.__post_init__` is the one place that says what a
well-formed request is (kind, payload, ``(d,)`` / ``(n, d)`` shapes); a
malformed one raises there, to its submitter, before anything is queued.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.spatial.rect import Rect

__all__ = [
    "KNN",
    "KNN_BATCH",
    "POINT",
    "POINT_BATCH",
    "Reply",
    "Request",
    "WINDOW",
    "WINDOW_BATCH",
]

POINT = "point"
WINDOW = "window"
KNN = "knn"

#: Batch request kinds: one request carries a whole array of points (or
#: list of windows) and resolves to the corresponding array/list of
#: results — the unit a shard router scatters, where per-operation
#: Request/Reply bookkeeping would dominate the actual query work.
POINT_BATCH = "point_batch"
WINDOW_BATCH = "window_batch"
KNN_BATCH = "knn_batch"

KINDS = (POINT, WINDOW, KNN, POINT_BATCH, WINDOW_BATCH, KNN_BATCH)
BATCH_KINDS = (POINT_BATCH, WINDOW_BATCH, KNN_BATCH)


class Reply:
    """Single-assignment completion handle for one request.

    Completion is one lock, held from construction and released by
    :meth:`resolve` / :meth:`reject`: a waiter acquires it (with its
    timeout) and hands it straight on, so any number of threads may wait.
    Completing twice raises (the lock is already released).
    """

    __slots__ = (
        "_latch",
        "value",
        "error",
        "generation",
        "submitted_at",
        "completed_at",
    )

    def __init__(self) -> None:
        self._latch = threading.Lock()
        self._latch.acquire()
        self.value = None
        self.error: BaseException | None = None
        self.generation: int | None = None
        self.submitted_at = time.perf_counter()
        self.completed_at: float | None = None

    def resolve(self, value, generation: int, at: float | None = None) -> None:
        """Complete the reply with a result (dispatcher side); ``at`` is
        the completion stamp when the dispatcher took one for a group."""
        self.value = value
        self.generation = generation
        self.completed_at = time.perf_counter() if at is None else at
        self._latch.release()

    def reject(self, error: BaseException, at: float | None = None) -> None:
        """Complete the reply with an error (dispatcher side)."""
        self.error = error
        self.completed_at = time.perf_counter() if at is None else at
        self._latch.release()

    def done(self) -> bool:
        """Completed?  (Reads False for the instant another thread's
        :meth:`wait` holds the lock on its way out.)"""
        return not self._latch.locked()

    def wait(self, timeout: float | None = None):
        """Block until completed; returns the value or raises the error."""
        if not self._latch.acquire(timeout=-1 if timeout is None else max(timeout, 0.0)):
            raise TimeoutError("request did not complete in time")
        self._latch.release()
        if self.error is not None:
            raise self.error
        return self.value

    @property
    def latency_seconds(self) -> float:
        """Submit-to-complete wall clock (only valid once done)."""
        assert self.completed_at is not None
        return self.completed_at - self.submitted_at


@dataclass
class Request:
    """One queued operation; exactly one payload field is meaningful.

    Scalar kinds carry ``point``/``window`` (+ ``k`` for kNN); batch kinds
    carry ``points`` (an (n, d) array) or ``windows`` (a list of Rects)
    and resolve to the whole batch's results at once.
    """

    kind: str
    point: np.ndarray | None = None
    window: Rect | None = None
    k: int = 0
    points: np.ndarray | None = None
    windows: list | None = None
    reply: Reply = field(default_factory=Reply)
    #: Dimensionality of the payload, read off by ``__post_init__`` (``None``
    #: for an empty window batch); a server admits only its index's own.
    d: "int | None" = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind in (KNN, KNN_BATCH) and self.k < 1:
            raise ValueError(f"kNN requests need k >= 1, got {self.k}")
        if self.kind == WINDOW:
            if self.window is None:
                raise ValueError("window requests need a window")
            self.d = self.window.ndim
        elif self.kind == WINDOW_BATCH:
            if self.windows is None:
                raise ValueError("window-batch requests need a list of windows")
            dims = {w.ndim for w in self.windows}
            if len(dims) > 1:
                raise ValueError(f"window-batch requests need one dimensionality, got {dims}")
            self.d = dims.pop() if dims else None
        elif self.kind in (POINT_BATCH, KNN_BATCH):
            if self.points is None:
                raise ValueError(f"{self.kind} requests need a points array")
            if self.points.ndim != 2:
                raise ValueError(
                    f"{self.kind} requests need an (n, d) array, got shape "
                    f"{self.points.shape}"
                )
            self.d = self.points.shape[1]
        elif self.point is None:
            raise ValueError(f"{self.kind} requests need a point")
        elif self.point.ndim != 1:
            raise ValueError(
                f"{self.kind} requests need one (d,) point, got shape {self.point.shape}"
            )
        else:
            self.d = self.point.shape[0]

    @property
    def size(self) -> int:
        """Operations this request represents (1 for scalar kinds)."""
        if self.kind == WINDOW_BATCH:
            return len(self.windows)
        if self.kind in (POINT_BATCH, KNN_BATCH):
            return len(self.points)
        return 1
