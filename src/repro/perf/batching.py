"""Fused batch refinement kernels.

The per-query loop each index used to run — ``store.scan`` per key, then a
NumPy membership test over the scanned slice — costs one interpreter
round-trip per query plus a full slice materialisation.  The kernels here
replace both with single-pass vectorised refinement over the whole batch:

1. **Group + charge**: per-query predicted scan ranges are clipped, merged
   into disjoint groups and charged to the store's block-read accounting in
   one vectorised call (:meth:`~repro.storage.blocks.BlockStore.charge_block_reads`)
   — overlapping ranges (common under RMI error bounds and insert widening)
   are read and charged once, exactly as the previous per-group
   ``store.scan`` loop did, but without materialising the group slices
   (batch membership never used the gathered rows).
2. **Fused gather + predicate** (point membership): every query's
   candidate run is flattened into one row-index vector and refined with a
   *progressive* per-dimension predicate — each dimension's comparison
   narrows the surviving rows before the next gathers — instead of
   gathering an (n, d) slab and reducing with ``np.all``.  Survivors are
   committed with one fancy-index assignment.  **Slice copy + predicate**
   (windows): scan runs are hundreds to thousands of rows long, so each
   window's runs are copied as contiguous slices into one bounded,
   column-major buffer and tested there against the window's scalar bounds
   — no row-index vector at all.

Results are exactly what scanning and testing each query's range on its own
produces: the same predicates over the same candidate sets, with false
candidates removed by the exact coordinate checks.  A batch of
one — which is what every per-query call is — takes that literal form: one
``store.scan`` and one predicate.
"""

from __future__ import annotations

import numpy as np

from repro.storage.blocks import BlockStore

__all__ = [
    "batch_point_membership",
    "batch_window_refine",
    "flat_window_refine",
    "merge_ranges",
    "sorted_point_membership",
]

#: Rows of the window kernel's reused candidate buffer (1 MiB in 2-D):
#: bounds its working memory whatever the scan runs hold, and is large
#: enough that only a window scanning more rows than this pays for a second
#: predicate pass.
_REFINE_BUFFER_ROWS = 1 << 16

#: About this many rows, whole runs, are gathered and tested at a time by
#: :func:`flat_window_refine`: its working set, ~5 arrays of that length,
#: stays in cache, and its memory is bounded whatever the batch scans.
_FLAT_CHUNK_ROWS = 1 << 15

#: Above this many rows scanned per window, on average, the slice copies
#: of :func:`batch_window_refine` beat :func:`flat_window_refine`'s gather
#: (they break even at ~1 500 on 300 000 points).
_FLAT_MAX_ROWS_PER_WINDOW = 1024


def merge_ranges(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge half-open integer ranges into disjoint sorted groups.

    Empty ranges (``hi <= lo``) are dropped.  Returns the merged groups'
    ``(starts, ends)`` arrays, sorted ascending.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if len(lo) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    running_end = np.maximum.accumulate(hi)
    # A range starts a new group when it begins past everything seen so far.
    new_group = np.empty(len(lo), dtype=bool)
    new_group[0] = True
    new_group[1:] = lo[1:] > running_end[:-1]
    starts = lo[new_group]
    group_last = np.append(np.flatnonzero(new_group)[1:] - 1, len(lo) - 1)
    ends = running_end[group_last]
    return starts, ends


def _flatten_runs(
    cand_lo: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and owner ids for every query's candidate run, flattened.

    Rows within a run stay in ascending (scan) order and runs follow query
    order, so ``owner`` is non-decreasing.
    """
    total = int(counts.sum())
    owner = np.repeat(np.arange(len(counts)), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    rows = np.arange(total) - np.repeat(offsets, counts) + np.repeat(cand_lo, counts)
    return rows, owner


def batch_point_membership(
    store: BlockStore,
    lo: np.ndarray,
    hi: np.ndarray,
    query_keys: np.ndarray,
    query_points: np.ndarray,
    atol: float = 0.0,
) -> np.ndarray:
    """One membership bool per query, given per-query scan ranges, for
    probes in any order.

    Parameters
    ----------
    store:
        The key-sorted store; merged groups are charged through
        :meth:`~repro.storage.blocks.BlockStore.charge_block_reads` so
        block-read accounting reflects the fused gathers.
    lo, hi:
        Per-query half-open scan ranges (model prediction ± error bounds,
        already widened for inserts); clipped to the store here.
    query_keys:
        Mapped key per query (same mapping that keyed the store).
    query_points:
        (b, d) query coordinates; a query hits iff some row in its range
        has a key within ``atol`` of ``query_keys`` and equal coordinates.

    The probes are put in key order — one ``argsort`` of the keys — for
    :func:`sorted_point_membership`, and its answers scattered back.  Each
    probe's answer depends on its own row alone, and the merged ranges
    charged are a union, so the order changes no answer and no block read.
    :meth:`~repro.indices.run.KeyedRun.point_lookup` sorts its probes
    before it predicts and calls the kernel itself; this wrapper is for
    probes that arrive unsorted.
    """
    b = len(query_keys)
    if b <= 1:
        return sorted_point_membership(store, lo, hi, query_keys, query_points, atol)
    n = len(store)
    # The default (unstable) sort: a stable one costs ~6× more, and the
    # order of equal keys cannot change a per-probe answer.
    order = np.argsort(query_keys)
    out = np.empty(b, dtype=bool)
    out[order] = sorted_point_membership(
        store,
        np.clip(np.asarray(lo, dtype=np.int64)[order], 0, n),
        np.clip(np.asarray(hi, dtype=np.int64)[order], 0, n),
        np.asarray(query_keys)[order],
        np.asarray(query_points)[order],
        atol,
    )
    return out


def sorted_point_membership(
    store: BlockStore,
    lo: np.ndarray,
    hi: np.ndarray,
    query_keys: np.ndarray,
    query_points: np.ndarray,
    atol: float = 0.0,
) -> np.ndarray:
    """The membership kernel: one bool per probe, for probes in ascending
    key order whose ranges are already within ``[0, len(store)]`` (a batch
    of one may be anywhere; :meth:`BlockStore.scan` clips it).

    Its two binary searches over the whole key column take monotone
    needles, so consecutive searches touch the same cache lines where
    random ones miss from the root down (4.6× faster at 65 536 probes
    over 300 000 keys: docs/performance.md, "Key-order probing").
    """
    n = len(store)
    b = len(query_keys)
    out = np.zeros(b, dtype=bool)
    # Edge cases: an empty batch has nothing to do, and a batch of one —
    # every per-query call — is plain predict-and-scan (one store.scan,
    # which clips the range itself; no range merging or flattened-run
    # bookkeeping).
    if n == 0 or b == 0:
        return out
    if b == 1:
        pts, keys, _ids = store.scan(int(lo[0]), int(hi[0]))
        if len(pts):
            match = np.abs(keys - float(query_keys[0])) <= atol
            out[0] = (match & (pts == query_points[0]).all(axis=1)).any()
        return out
    # Charge block reads once per merged group — same accounting as the old
    # per-group store.scan loop, with no slice materialisation.
    store.charge_block_reads(*merge_ranges(lo, hi))

    # Candidate runs: rows whose key matches, intersected with the range.
    run_lo = np.searchsorted(store.keys, query_keys - atol, side="left")
    run_hi = np.searchsorted(store.keys, query_keys + atol, side="right")
    cand_lo = np.maximum(run_lo, lo)
    cand_hi = np.minimum(run_hi, hi)
    counts = np.maximum(cand_hi - cand_lo, 0)
    if int(counts.sum()) == 0:
        return out

    d = store.points.shape[1]
    if int(counts.max()) == 1:
        # Unique-key fast path (the common case away from duplicate keys):
        # every run is a single row, so no flattening bookkeeping is needed.
        sel = counts > 0
        rows = cand_lo[sel]
        equal = np.ones(len(rows), dtype=bool)
        for dim in range(d):
            equal &= store.points[rows, dim] == query_points[sel, dim]
        out[sel] = equal
        return out

    rows, owner = _flatten_runs(cand_lo, counts)
    # Progressive per-dimension narrowing: each comparison shrinks the
    # surviving rows before the next dimension gathers, so mismatches
    # (the overwhelming majority) are touched exactly once.
    for dim in range(d):
        keep = store.points[rows, dim] == query_points[owner, dim]
        rows = rows[keep]
        owner = owner[keep]
        if len(rows) == 0:
            return out
    out[owner] = True
    return out


def _rows_in_rect(cols: np.ndarray, lo: list[float], hi: list[float]) -> np.ndarray:
    """Rows inside the closed rect ``lo <= x <= hi``, in order, as a new
    ``(m, d)`` array; ``cols`` holds them one dimension per row, ``(d, r)``."""
    mask = (cols[0] >= lo[0]) & (cols[0] <= hi[0])
    for dim in range(1, len(cols)):
        mask &= cols[dim] >= lo[dim]
        mask &= cols[dim] <= hi[dim]
    keep = mask.nonzero()[0]
    out = np.empty((len(keep), len(cols)))
    for dim in range(len(cols)):
        out[:, dim] = cols[dim].take(keep)
    return out


def batch_window_refine(
    store: BlockStore,
    lo: np.ndarray,
    hi: np.ndarray,
    win_lo: np.ndarray,
    win_hi: np.ndarray,
    owner: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Fused rectangle refinement over every window's scan runs.

    Replaces the per-window ``store.scan`` + ``Rect.contains_points`` loop
    with one kernel: a window's runs are copied, as contiguous slices of
    the store, one after the other into a reused buffer, and the rectangle
    predicate runs once over that segment with the window's bounds as
    scalars.  No row-index vector is built and nothing is fancy-gathered —
    a slice copy moves a row for about a fifth of what building and
    gathering through an index costs (2.8 vs 15.6 ns on 400-row runs).
    The buffer is column-major (the copy transposes), so every comparison
    reads contiguous memory, and it is bounded (``_REFINE_BUFFER_ROWS``)
    whatever the runs hold: a window with more rows is filtered a
    bufferful at a time.

    Parameters
    ----------
    store:
        Key-sorted store; block reads are charged per merged group of runs.
    lo, hi:
        Half-open scan runs over the sorted order (already exact boundary
        ranks or conservative supersets); clipped here.
    win_lo, win_hi:
        (w, d) closed rectangle bounds per window, in float64.
    owner:
        The window each run belongs to, non-decreasing: a window's runs are
        adjacent and in the order their rows are wanted, and a window may
        have none.  Absent: run ``i`` is window ``i``'s only run.

    Returns one ``(m_i, d)`` float64 array per window, rows in run order
    and in scan (key) order within a run — exactly what scanning and
    filtering each run on its own and stacking the pieces produces: the
    predicate is the same closed-interval test ``lo <= x <= hi``.
    """
    win_lo = np.asarray(win_lo, dtype=np.float64)
    win_hi = np.asarray(win_hi, dtype=np.float64)
    w = len(win_lo)
    if w == 0:
        return []
    bounds_lo, bounds_hi = win_lo.tolist(), win_hi.tolist()
    if w == 1 and len(lo) == 1:
        # A lone run is one contiguous slice already (store.scan clips it
        # and charges its blocks): nothing to merge, nothing to copy.
        seg = store.scan(int(lo[0]), int(hi[0]))[0]
        return [_rows_in_rect(seg.T, bounds_lo[0], bounds_hi[0])]

    points = store.points
    n, d = points.shape
    lo = np.clip(np.asarray(lo, dtype=np.int64), 0, n)
    hi = np.clip(np.asarray(hi, dtype=np.int64), 0, n)
    store.charge_block_reads(*merge_ranges(lo, hi))
    first = (
        range(w + 1)
        if owner is None
        else np.searchsorted(owner, np.arange(w + 1)).tolist()
    )
    cap = min(int(np.maximum(hi - lo, 0).sum()), _REFINE_BUFFER_ROWS)
    buf = np.empty((d, cap))
    results: list[np.ndarray] = [np.empty((0, d))] * w
    run_lo, run_hi = lo.tolist(), hi.tolist()
    for i in range(w):
        parts = []
        fill = 0
        for run in range(first[i], first[i + 1]):
            a, b = run_lo[run], run_hi[run]
            while a < b:
                take = min(b - a, cap - fill)
                buf[:, fill : fill + take] = points[a : a + take].T
                a += take
                fill += take
                if fill == cap:
                    parts.append(_rows_in_rect(buf, bounds_lo[i], bounds_hi[i]))
                    fill = 0
        if fill:
            parts.append(_rows_in_rect(buf[:, :fill], bounds_lo[i], bounds_hi[i]))
        if parts:
            results[i] = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return results


def flat_window_refine(
    store: BlockStore,
    lo: np.ndarray,
    hi: np.ndarray,
    win_lo: np.ndarray,
    win_hi: np.ndarray,
    owner: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`batch_window_refine` for a batch of small windows, flat.

    Takes what that kernel takes, ``owner`` required, and returns the
    concatenation of its arrays, byte for byte, with their lengths: the
    rows inside each window as one ``(m, d)`` array, window by window, and
    one row count per window.  Block reads are charged alike.

    Where the windows scan at most ``_FLAT_MAX_ROWS_PER_WINDOW`` rows each
    on average (kNN rounds: ~170 on 300 000 points), every run's rows are
    gathered at once (one ``take`` of whole rows) and tested with one
    closed-interval predicate against their window's bounds, repeated run
    by run: no per-window loop, ~18 ns a row where the per-window loop
    costs ~17 µs a window and ~5 ns a row.  Larger windows, whose slice
    copies win, and a single run, one ``store.scan`` slice, go through
    :func:`batch_window_refine` (docs/performance.md, "Expanding-window
    kNN").  Two gathers that look alike cost far more: ``points[rows]``
    takes ~7× as long as ``points.take(rows, axis=0)``, and a column
    gather (``points[:, dim].take(rows)``) copies the strided column of
    the whole store first.
    """
    win_lo = np.asarray(win_lo, dtype=np.float64)
    win_hi = np.asarray(win_hi, dtype=np.float64)
    w = len(win_lo)
    n = len(store)
    lo = np.clip(np.asarray(lo, dtype=np.int64), 0, n)
    hi = np.clip(np.asarray(hi, dtype=np.int64), 0, n)
    length = np.maximum(hi - lo, 0)
    if len(lo) == 1 or int(length.sum()) > _FLAT_MAX_ROWS_PER_WINDOW * w:
        parts = batch_window_refine(store, lo, hi, win_lo, win_hi, owner)
        return np.concatenate(parts), np.fromiter(map(len, parts), np.int64, w)
    store.charge_block_reads(*merge_ranges(lo, hi))
    # Whole runs a chunk at a time, a new chunk at the first run to start
    # past each multiple of _FLAT_CHUNK_ROWS.
    starts = np.cumsum(length) - length
    cuts = np.flatnonzero(np.diff(starts // _FLAT_CHUNK_ROWS)) + 1
    cuts = [0, *cuts.tolist(), len(lo)]
    pieces = [
        _rows_in_rects(
            store.points, lo[a:b], length[a:b],
            win_lo.take(owner[a:b], axis=0), win_hi.take(owner[a:b], axis=0),
        )
        for a, b in zip(cuts[:-1], cuts[1:])
    ]
    found, per_run = (
        pieces[0] if len(pieces) == 1 else map(np.concatenate, zip(*pieces))
    )
    counts = np.bincount(owner, weights=per_run, minlength=w).astype(np.int64)
    return found, counts


def _rows_in_rects(
    points: np.ndarray,
    lo: np.ndarray,
    length: np.ndarray,
    bounds_lo: np.ndarray,
    bounds_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of each run ``[lo, lo + length)`` inside the run's own
    closed rect (one row of bounds per run), in order, and their count
    per run."""
    ends = np.cumsum(length)
    rows = np.arange(int(length.sum())) + np.repeat(lo - (ends - length), length)
    cand = points.take(rows, axis=0)
    inside = cand >= np.repeat(bounds_lo, length, axis=0)
    inside &= cand <= np.repeat(bounds_hi, length, axis=0)
    keep = inside[:, 0]
    for dim in range(1, inside.shape[1]):  # not inside.all(axis=1): ~17× slower
        keep = keep & inside[:, dim]
    kept = np.flatnonzero(keep)
    return cand.take(kept, axis=0), np.diff(np.searchsorted(kept, ends), prepend=0)
