"""Request and reply types flowing through the serving queue.

A request is one batch of reads of one kind — point membership, window or
kNN — plus a :class:`Reply`, a miniature single-assignment future that
whoever serves the micro-batch containing the request completes once it
has been answered: the thread that waits on the reply, or the server's
dispatcher when nobody does (:class:`~repro.serve.server.IndexServer`).
Replies record submission/completion timestamps and the generation that
answered them, which is what the swap-under-load tests assert on: every
reply names exactly one generation, and all replies of one micro-batch
name the same one.

:meth:`Request.__post_init__` is the one place that says what a
well-formed request is (kind, ``(n, d)`` payload shapes, ``k``); a
malformed one raises there, to its submitter, before anything is queued.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["KINDS", "KNN", "POINT", "Reply", "Request", "WINDOW"]

POINT = "point"
WINDOW = "window"
KNN = "knn"

KINDS = (POINT, WINDOW, KNN)


class Reply:
    """Single-assignment completion handle for one request.

    Completion is one lock, held from construction and released by
    :meth:`resolve` / :meth:`reject`: a waiter acquires it (with its
    timeout) and hands it straight on, so any number of threads may wait.
    Completing twice raises (the lock is already released).

    A served reply carries a serve hook, ``_serve(reply, deadline)``, set
    by the server at submission: :meth:`wait` calls it first, so a waiter
    whose request is still queued answers it in its own thread instead of
    sleeping through two thread hand-offs.  The hook returns when the
    reply is complete, when another thread is serving, or at ``deadline``
    (a ``perf_counter`` reading, ``None`` for none); the waiter then
    blocks on the lock as before.
    """

    __slots__ = (
        "_latch",
        "_serve",
        "value",
        "error",
        "generation",
        "submitted_at",
        "completed_at",
    )

    def __init__(self) -> None:
        self._latch = threading.Lock()
        self._latch.acquire()
        self._serve = None
        self.value = None
        self.error: BaseException | None = None
        self.generation: int | None = None
        self.submitted_at = time.perf_counter()
        self.completed_at: float | None = None

    def resolve(self, value, generation: int, at: float | None = None) -> None:
        """Complete the reply with a result (serving side); ``at`` is
        the completion stamp when the server took one for a group."""
        self.value = value
        self.generation = generation
        self.completed_at = time.perf_counter() if at is None else at
        self._latch.release()

    def reject(self, error: BaseException, at: float | None = None) -> None:
        """Complete the reply with an error (serving side)."""
        self.error = error
        self.completed_at = time.perf_counter() if at is None else at
        self._latch.release()

    def done(self) -> bool:
        """Completed?  (Reads False for the instant another thread's
        :meth:`wait` holds the lock on its way out.)"""
        return not self._latch.locked()

    def wait(self, timeout: float | None = None):
        """Block until completed; returns the value or raises the error.
        With a serve hook, serve queued work first (see the class notes)."""
        if self._serve is not None and self._latch.locked():
            if timeout is None:
                self._serve(self, None)
            else:
                deadline = time.perf_counter() + timeout
                self._serve(self, deadline)
                timeout = deadline - time.perf_counter()
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
    """One queued batch of reads of one kind.

    Point and kNN requests carry ``points``, an ``(n, d)`` array (plus
    ``k`` for kNN); window requests carry the corner arrays ``win_lo`` and
    ``win_hi``, ``(w, d)`` each.  A request resolves to its batch's
    answers: a bool array (point), ``(rows, counts)`` — every window's
    rows back to back and a row count per window — (window), or one
    ``(m, d)`` array per query (kNN).  A ``scalar`` request holds one row
    and resolves to its one answer instead: a bool, an ``(m, d)`` array,
    an ``(m, d)`` array.
    """

    kind: str
    points: np.ndarray | None = None
    win_lo: np.ndarray | None = None
    win_hi: np.ndarray | None = None
    k: int = 0
    scalar: bool = False
    reply: Reply = field(default_factory=Reply)
    #: Dimensionality and row count of the payload, read off by
    #: ``__post_init__``; a server admits only its index's own ``d``.
    d: int = field(init=False, default=0)
    size: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == KNN and self.k < 1:
            raise ValueError(f"kNN requests need k >= 1, got {self.k}")
        if self.kind == WINDOW:
            if self.win_lo is None or self.win_hi is None:
                raise ValueError("window requests need win_lo and win_hi corner arrays")
            shape = self.win_lo.shape
            if self.win_hi.shape != shape:
                raise ValueError(
                    f"window corners differ in shape: {shape} vs {self.win_hi.shape}"
                )
        elif self.points is None:
            raise ValueError(f"{self.kind} requests need a points array")
        else:
            shape = self.points.shape
        if len(shape) != 2:
            raise ValueError(
                f"{self.kind} requests need (n, d) arrays, got shape {shape}"
            )
        if self.scalar and shape[0] != 1:
            raise ValueError(
                f"a scalar {self.kind} request holds one row, got {shape[0]}"
            )
        self.size, self.d = shape
