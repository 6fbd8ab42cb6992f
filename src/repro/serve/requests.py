"""The one object a served read is: its batch, and the reply it becomes.

A :class:`Request` is one batch of reads of one kind — point membership,
window or kNN — and its own reply: a miniature single-assignment future
that whoever serves the micro-batch containing it completes once it has
been answered, the thread that waits on it or the server's dispatcher
when nobody does (:class:`~repro.serve.server.IndexServer`).  ``submit``
hands the request itself back, so a served read costs one Python object.
A request records its submission/completion timestamps and the
generation that answered it, which is what the swap-under-load tests
assert on: every reply names exactly one generation, and all replies of
one micro-batch name the same one.

:meth:`Request.__init__` is the one place that says what a well-formed
request is (kind, ``(n, d)`` payload shapes, ``k``); a malformed one
raises there, to its submitter, before anything is queued.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.queries.types import check_k
from repro.serve.errors import RequestTimeout

__all__ = ["KINDS", "KNN", "POINT", "Request", "WINDOW", "release"]

POINT = "point"
WINDOW = "window"
KNN = "knn"

KINDS = (POINT, WINDOW, KNN)


class Request:
    """One queued batch of reads of one kind, and its reply.

    Point and kNN requests carry ``points``, an ``(n, d)`` array (plus
    ``k``, an integer >= 1, for kNN); window requests carry the corner
    arrays ``win_lo`` and ``win_hi``, ``(w, d)`` each.  ``size`` and ``d``
    are the payload's row count and dimensionality; a server admits only
    its index's own ``d``.  A request resolves to its batch's answers: a
    bool array (point), ``(rows, counts)`` — every window's rows back to
    back and a row count per window — (window), or one ``(m, d)`` array
    per query (kNN).  A ``scalar`` request holds one row and resolves to
    its one answer instead: a bool, an ``(m, d)`` array, an ``(m, d)``
    array.  ``k`` and ``scalar`` come before the window corners so that
    the served per-query spellings pass them by position: a keyword
    argument costs a dict per request.

    Completion is one lock, held from construction and released by
    :func:`release` (a micro-batch's kind-group at a time; :meth:`resolve`
    / :meth:`reject` for one request).  :meth:`wait` on a completed
    request reads its answer without touching the lock; a waiter on a
    pending one acquires the lock (with its timeout) and hands it straight
    on, so any number of threads may wait.  Completing twice raises:
    :meth:`resolve` and :meth:`reject` check first and leave the first
    answer, its generation and its stamp as they were; :func:`release`
    (the server's path, which never completes twice) finds out from the
    lock, after writing.

    A submitted request carries its server's serve hook, ``_serve(request,
    deadline)``: :meth:`wait` on a pending request calls it first, so a
    waiter whose request is still queued answers it in its own thread
    instead of sleeping through two thread hand-offs.  The hook returns
    when the request is complete, when another thread is serving, or at
    ``deadline`` (a ``perf_counter`` reading, ``None`` for none); the
    waiter then blocks on the lock.
    """

    __slots__ = (
        "kind",
        "points",
        "win_lo",
        "win_hi",
        "k",
        "scalar",
        "size",
        "d",
        "_latch",
        "_serve",
        "value",
        "error",
        "generation",
        "submitted_at",
        "completed_at",
    )

    def __init__(
        self,
        kind: str,
        points: np.ndarray | None = None,
        k: int = 0,
        scalar: bool = False,
        win_lo: np.ndarray | None = None,
        win_hi: np.ndarray | None = None,
    ) -> None:
        if kind == WINDOW:
            if win_lo is None or win_hi is None:
                raise ValueError("window requests need win_lo and win_hi corner arrays")
            shape = win_lo.shape
            if win_hi.shape != shape:
                raise ValueError(
                    f"window corners differ in shape: {shape} vs {win_hi.shape}"
                )
        elif kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        else:
            if kind == KNN:
                k = check_k(k)
            if points is None:
                raise ValueError(f"{kind} requests need a points array")
            shape = points.shape
        if len(shape) != 2:
            raise ValueError(f"{kind} requests need (n, d) arrays, got shape {shape}")
        if scalar and shape[0] != 1:
            raise ValueError(f"a scalar {kind} request holds one row, got {shape[0]}")
        self.size, self.d = shape
        self.kind = kind
        self.points = points
        self.win_lo = win_lo
        self.win_hi = win_hi
        self.k = k
        self.scalar = scalar
        self._latch = latch = threading.Lock()
        latch.acquire()
        self._serve = None
        self.value = None
        self.error: BaseException | None = None
        self.generation: int | None = None
        self.submitted_at = time.perf_counter()
        self.completed_at: float | None = None

    def resolve(self, value, generation: int) -> None:
        """Complete the request with its answer (serving side)."""
        self._check_pending()
        release([self], time.perf_counter(), generation, [value])

    def reject(self, error: BaseException) -> None:
        """Complete the request with an error (serving side)."""
        self._check_pending()
        release([self], time.perf_counter(), error=error)

    def _check_pending(self) -> None:
        if self.completed_at is not None:
            raise RuntimeError("request already completed")

    def done(self) -> bool:
        """Completed?  (Reads False for the instant a waiter that blocked
        before completion holds the lock on its way out.)"""
        return not self._latch.locked()

    def wait(self, timeout: float | None = None):
        """Block until completed; returns the answer or raises the error.
        A completed request returns at once; a pending one serves queued
        work first when it has a serve hook (see the class notes).  Raises
        :class:`~repro.serve.errors.RequestTimeout` once ``timeout``
        seconds pass; a request that times out is not withdrawn, and its
        server still answers it."""
        latch = self._latch
        if latch.locked():
            if self._serve is not None:
                if timeout is None:
                    self._serve(self, None)
                else:
                    deadline = time.perf_counter() + timeout
                    self._serve(self, deadline)
                    timeout = deadline - time.perf_counter()
            if not latch.acquire(timeout=-1 if timeout is None else max(timeout, 0.0)):
                raise RequestTimeout("request did not complete in time")
            latch.release()
        if self.error is not None:
            raise self.error
        return self.value


def release(
    group: "list[Request]",
    at: float,
    generation: int | None = None,
    values: "list | None" = None,
    error: BaseException | None = None,
) -> None:
    """Complete every request of ``group`` at one stamp ``at``: each with
    its answer from ``values`` and ``generation``, or all with ``error``.
    The one place a request is completed; the server releases a whole
    kind-group of a micro-batch with one call, no method call per
    request."""
    if error is None:
        for r, value in zip(group, values):
            r.value = value
            r.generation = generation
            r.completed_at = at
            r._latch.release()
    else:
        for r in group:
            r.error = error
            r.completed_at = at
            r._latch.release()
