"""Fused, dtype-aware batch refinement kernels.

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
2. **Fused gather + predicate**: every query's candidate run is flattened
   into one row-index vector and refined with a *progressive* per-dimension
   predicate — each dimension's comparison narrows the surviving rows before
   the next gathers — instead of gathering an (n, d) slab and reducing with
   ``np.all``.  Survivors are committed with one fancy-index assignment.
3. **Dtype-aware boundaries**: ``searchsorted`` runs in the store's key
   dtype.  Query-side boundary values are cast through the same
   round-to-nearest conversion the stored keys went through; because the
   cast is monotone (x >= y implies f32(x) >= f32(y)), the cast boundaries
   bracket a *superset* of the true candidates, and the exact float64
   coordinate / rectangle predicates eliminate the extras.  Searching a
   float32 key column with float32 boundaries halves the binary-search
   memory traffic instead of silently promoting every probe to float64.

Results are exactly what scanning and testing each query's range on its own
produces: the same predicates over the same (or superset) candidate sets,
with false candidates removed by the exact coordinate checks.  A batch of
one — which is what every per-query call is — takes that literal form: one
``store.scan`` and one predicate.
"""

from __future__ import annotations

import numpy as np

from repro.storage.blocks import BlockStore

__all__ = [
    "batch_point_membership",
    "batch_window_refine",
    "cast_boundaries",
    "merge_ranges",
]

#: Flattened-run chunk bound for the window kernel: caps peak gather memory
#: (row indices + per-dimension masks) while keeping each chunk big enough
#: to amortise the NumPy dispatch overhead.
_WINDOW_CHUNK_ROWS = 1 << 22

#: Run length above which a window takes the contiguous-slice path instead
#: of joining the flattened gather.  Long runs are dominated by the
#: predicate itself, where contiguous column reads beat materialising an
#: int64 row-index vector and fancy-gathering through it; short runs are
#: dominated by per-window dispatch overhead, which the flattened kernel
#: amortises across the whole batch.
_SLICE_RUN_ROWS = 2048


def cast_boundaries(values: np.ndarray, key_dtype: np.dtype) -> np.ndarray:
    """Cast query-side boundary keys to the store's key dtype.

    Round-to-nearest casting is monotone, so for any stored key ``s``
    (already in ``key_dtype``) and float64 boundary ``a``: ``s >= a``
    implies ``s >= cast(a)`` and ``s <= b`` implies ``s <= cast(b)`` —
    the cast interval brackets a superset of the true candidates.  This is
    the whole "bound inflation" needed for quantised key columns; no
    directed rounding required.
    """
    return np.asarray(values).astype(key_dtype, copy=False)


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
    """One membership bool per query, given per-query scan ranges.

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
        Mapped key per query (same mapping — including any dtype cast —
        that keyed the store).
    query_points:
        (b, d) query coordinates; a query hits iff some row in its range
        has a key within ``atol`` of ``query_keys`` and equal coordinates.
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
            match = np.abs(keys.astype(np.float64) - float(query_keys[0])) <= atol
            out[0] = (match & (pts == query_points[0]).all(axis=1)).any()
        return out
    lo = np.clip(np.asarray(lo, dtype=np.int64), 0, n)
    hi = np.clip(np.asarray(hi, dtype=np.int64), 0, n)

    # Charge block reads once per merged group — same accounting as the old
    # per-group store.scan loop, with no slice materialisation.
    store.charge_block_reads(*merge_ranges(lo, hi))

    # Candidate runs: rows whose key matches, intersected with the range.
    # searchsorted runs in the store's key dtype; boundary values go through
    # the same monotone cast as the stored keys (see cast_boundaries).
    key_dtype = store.keys.dtype
    if atol == 0.0:
        probe = cast_boundaries(query_keys, key_dtype)
        run_lo = np.searchsorted(store.keys, probe, side="left")
        run_hi = np.searchsorted(store.keys, probe, side="right")
    else:
        keys64 = np.asarray(query_keys, dtype=np.float64)
        run_lo = np.searchsorted(
            store.keys, cast_boundaries(keys64 - atol, key_dtype), side="left"
        )
        run_hi = np.searchsorted(
            store.keys, cast_boundaries(keys64 + atol, key_dtype), side="right"
        )
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


def batch_window_refine(
    store: BlockStore,
    lo: np.ndarray,
    hi: np.ndarray,
    win_lo: np.ndarray,
    win_hi: np.ndarray,
) -> list[np.ndarray]:
    """Fused rectangle refinement over per-window scan ranges.

    Replaces the per-window ``store.scan`` + ``Rect.contains_points`` loop
    — the dominant cost of batch window queries at the 1e6-point scale —
    with a hybrid single-pass kernel: windows with long scan runs
    (>= ``_SLICE_RUN_ROWS``) narrow progressively over their contiguous
    slice, and the remaining short runs are flattened into one gather and
    refined with a shared per-dimension predicate.

    Parameters
    ----------
    store:
        Key-sorted store; block reads are charged per merged group.
    lo, hi:
        Per-window half-open scan ranges over the sorted order (already
        exact boundary ranks or conservative supersets); clipped here.
    win_lo, win_hi:
        (w, d) closed rectangle bounds per window, in float64.

    Returns one ``(m_i, d)`` float64 array per window, rows in scan (key)
    order — exactly what scanning and filtering each window individually
    produces, because the flattened runs preserve scan order and the
    predicate is the same closed-interval test ``lo <= x <= hi``.
    """
    n = len(store)
    w = len(lo)
    d = store.points.shape[1]
    empty = np.empty((0, d))
    if w == 0:
        return []
    win_lo = np.asarray(win_lo, dtype=np.float64)
    win_hi = np.asarray(win_hi, dtype=np.float64)
    if w == 1:
        # Contiguity fast path: a single window is one contiguous slice
        # (store.scan clips the range itself).
        pts, _keys, _ids = store.scan(int(lo[0]), int(hi[0]))
        if len(pts) == 0:
            return [empty]
        mask = np.ones(len(pts), dtype=bool)
        for dim in range(d):
            mask &= (pts[:, dim] >= win_lo[0, dim]) & (pts[:, dim] <= win_hi[0, dim])
        return [pts[mask]]

    lo = np.clip(np.asarray(lo, dtype=np.int64), 0, n)
    hi = np.clip(np.asarray(hi, dtype=np.int64), 0, n)
    store.charge_block_reads(*merge_ranges(lo, hi))
    counts = np.maximum(hi - lo, 0)
    results: list[np.ndarray] = [empty] * w

    # Long runs: progressive narrowing over the contiguous slice — the
    # first dimension's predicate runs on a strided column view with
    # scalar bounds (no row-index vector, no owner gathers), and later
    # dimensions only touch its survivors.
    big = np.flatnonzero(counts >= _SLICE_RUN_ROWS)
    for i in big:
        pts = store.points[lo[i] : hi[i]]
        keep = np.flatnonzero(
            (pts[:, 0] >= win_lo[i, 0]) & (pts[:, 0] <= win_hi[i, 0])
        )
        for dim in range(1, d):
            vals = pts[keep, dim]
            keep = keep[(vals >= win_lo[i, dim]) & (vals <= win_hi[i, dim])]
            if len(keep) == 0:
                break
        if len(keep):
            results[i] = pts[keep]
    if len(big):
        counts = counts.copy()
        counts[big] = 0
        if int(counts.sum()) == 0:
            return results

    # Chunk over windows so the flattened row vector stays bounded; each
    # chunk is still thousands of windows at serving batch sizes.
    boundaries = np.concatenate(([0], np.cumsum(counts)))
    start = 0
    while start < w:
        end = start + 1
        while end < w and boundaries[end + 1] - boundaries[start] <= _WINDOW_CHUNK_ROWS:
            end += 1
        chunk_counts = counts[start:end]
        if int(chunk_counts.sum()) == 0:
            start = end
            continue
        rows, owner = _flatten_runs(lo[start:end], chunk_counts)
        owner += start
        for dim in range(d):
            keep = (store.points[rows, dim] >= win_lo[owner, dim]) & (
                store.points[rows, dim] <= win_hi[owner, dim]
            )
            rows = rows[keep]
            owner = owner[keep]
            if len(rows) == 0:
                break
        if len(rows):
            # owner is non-decreasing, so each window's survivors form one
            # contiguous segment of `rows`, still in scan order.
            hits = np.bincount(owner - start, minlength=end - start)
            gathered = store.points[rows]
            splits = np.cumsum(hits)[:-1]
            for off, part in enumerate(np.split(gathered, splits)):
                if len(part):
                    results[start + off] = part
        start = end
    return results
