"""ZM windows scan a rectangle's Z-intervals, not its Z-hull.

``ZMIndex.window_queries`` cuts ``[z(lo), z(hi)]`` around the codes that
hold stored rows outside the rectangle (``ZMIndex._scan_runs``) and filters
every window's runs in one kernel (``batch_window_refine``).  That may only
change what a window — and the kNN built on windows — costs, never what it
answers: rows, their order, and the counters that describe the scan.  The
oracle is ``tests/brute.py``, under the constants the index ships with and
with every positive gap cut (``exhaustive``), which makes many more and much
narrower intervals than any real batch.
"""

import tracemalloc

import numpy as np
import pytest

import repro.indices.zm as zm
from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.data import load_dataset
from repro.indices import ZMIndex
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.perf import batching
from repro.perf.batching import batch_window_refine, merge_ranges
from repro.spatial.rect import Rect
from repro.spatial.zcurve import zvalues
from repro.storage.blocks import BlockStore
from tests.brute import assert_knn, assert_windows

K = 25
WINDOW_SIDE = 1e-2  # a 1e-4 window of the unit square


@pytest.fixture(scope="module")
def osm20k():
    return load_dataset("OSM1", 20_000, 0)


@pytest.fixture(scope="module")
def data(osm20k):
    """The 20 000 points plus 300 of them twice more (equal keys, equal rows)."""
    rng = np.random.default_rng(4)
    return np.vstack([osm20k, np.repeat(osm20k[rng.integers(0, len(osm20k), 300)], 2, axis=0)])


def _build(points, dtype, **params):
    builder = ELSIModelBuilder(ELSIConfig(train_epochs=20, dtype=dtype), method="SP")
    return ZMIndex(builder=builder, **params).build(points)


@pytest.fixture(scope="module", params=["float64", "float32"])
def index(request, data):
    return _build(data, request.param)


@pytest.fixture(params=["shipped", "exhaustive"])
def constants(request, monkeypatch):
    """The shipped stopping rules, or none: cut at every gap of one row."""
    if request.param == "exhaustive":
        monkeypatch.setattr(zm, "_MIN_GAP_ROWS", 1)
        monkeypatch.setattr(zm, "_MIN_ROUND_ROWS", 0)
    return request.param


def _spy_runs(index, monkeypatch):
    """Record ``(lo, hi, owner)`` of every ``_scan_runs`` call."""
    calls, inner = [], index._scan_runs

    def spy(zlo, zhi):
        calls.append(inner(zlo, zhi))
        return calls[-1]

    monkeypatch.setattr(index, "_scan_runs", spy)
    return calls


def _special_windows(points, bounds):
    """Windows where a Z-interval split can go wrong."""
    lo, hi = bounds.lo_array, bounds.hi_array
    mid, extent = (lo + hi) / 2.0, hi - lo
    rng = np.random.default_rng(9)
    twice = points[-1]  # stored three times
    return [
        # straddling the top-level quadrant boundary: corner codes differ in
        # the top bit, and the hull is (nearly) the whole key column
        Rect.centered(mid, 1e-3),
        Rect.centered(mid, 0.3),
        Rect(tuple(mid - [0.2, 1e-4]), tuple(mid + [0.2, 1e-4])),
        Rect(tuple(mid - [1e-4, 0.2]), tuple(mid + [1e-4, 0.2])),
        # full width, thin: the top gap is empty, the deeper ones are not
        Rect((lo[0], mid[1] - 0.21), (hi[0], mid[1] - 0.2)),
        # outside the bounds: wholly, and hanging over an edge and a corner
        Rect(tuple(hi + 1.0), tuple(hi + 2.0)),
        Rect(tuple(lo - 0.5), tuple(lo + 0.02 * extent)),
        Rect((mid[0], hi[1] - 0.01), (mid[0] + 0.1, hi[1] + 3.0)),
        # zero extent: on a point stored once, on one stored three times, on none
        Rect(tuple(points[17]), tuple(points[17])),
        Rect(tuple(twice), tuple(twice)),
        Rect(tuple(mid + 1e-7), tuple(mid + 1e-7)),
        # whole space, and more
        Rect(tuple(lo), tuple(hi)),
        Rect(tuple(lo - 1.0), tuple(hi + 1.0)),
        # around the duplicated rows
        *(Rect.centered(points[i], WINDOW_SIDE) for i in rng.integers(len(points) - 600, len(points), 6)),
    ]


def _data_windows(points, count, seed):
    rng = np.random.default_rng(seed)
    return [Rect.centered(c, WINDOW_SIDE) for c in points[rng.integers(0, len(points), count)]]


def _assert_key_order(index, rows):
    keys = index.map(rows) if len(rows) else np.empty(0)
    assert np.all(np.diff(keys.astype(np.float64)) >= 0)


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------
def test_windows_equal_brute_force(index, data, constants, monkeypatch):
    windows = _special_windows(data, index.bounds) + _data_windows(data, 80, 1)
    calls = _spy_runs(index, monkeypatch)
    got = index.window_queries(windows)
    (lo, hi, owner), = calls
    assert owner is not None and len(lo) > len(windows)  # intervals were cut
    assert_windows("ZM", data, windows, got)
    for rows in got:
        _assert_key_order(index, rows)


def test_a_batch_of_one_equals_its_row_in_the_batch(index, data, constants):
    windows = _special_windows(data, index.bounds) + _data_windows(data, 80, 2)
    batch = index.window_queries(windows)
    for window, rows in zip(windows, batch):
        alone = index.window_queries([window])[0]
        assert alone.tobytes() == rows.tobytes() and alone.shape == rows.shape
        assert np.array_equal(index.window_query(window), rows)


def test_knn_equals_brute_force(index, data, constants):
    rng = np.random.default_rng(3)
    near = np.clip(data[rng.integers(0, len(data), 90)] + rng.normal(0, 1e-3, (90, 2)), 0, 1)
    lo, hi = index.bounds.lo_array, index.bounds.hi_array
    queries = np.vstack([
        near,
        data[-4:],  # on rows stored three times
        (lo + hi) / 2.0,  # the top-level quadrant corner
        hi + 0.3, lo - [2.0, 0.0],  # outside the bounds
    ])
    for k in (1, K):
        got = index.knn_queries(queries, k)
        assert_knn("ZM", data, queries, k, got)
        for q, rows in zip(queries[::7], got[::7]):
            assert index.knn_queries(q[None, :], k)[0].tobytes() == rows.tobytes()


def test_after_native_inserts(data, constants):
    index = _build(data[:6_000], "float64")
    rng = np.random.default_rng(6)
    extra = np.vstack([
        rng.random((150, 2)),  # some outside the built bounds: clipped cells
        data[rng.integers(0, 6_000, 50)],  # copies of stored rows
    ])
    for p in extra:
        index.insert(p)
    everything = np.vstack([data[:6_000], extra])
    windows = (
        _special_windows(everything, index.bounds)
        + [Rect.centered(p, 0.05) for p in extra[::10]]
        + _data_windows(everything, 200, 7)
    )
    assert_windows("ZM", everything, windows, index.window_queries(windows))
    queries = np.vstack([extra[::15], data[:6_000:500]])
    assert_knn("ZM", everything, queries, 10, index.knn_queries(queries, 10))


def test_float32_keys_collide_and_no_row_comes_back_twice(data, monkeypatch):
    """32-bit codes in a 24-bit mantissa: neighbouring codes share a key,
    and so can LITMAX and BIGMIN of one cut.  Runs are made disjoint in
    rank space, so the rows under the shared key are scanned once."""
    monkeypatch.setattr(zm, "_MIN_GAP_ROWS", 1)
    monkeypatch.setattr(zm, "_MIN_ROUND_ROWS", 0)
    index = _build(data, "float32")
    codes = zvalues(data, index.bounds, index.bits)
    assert len(np.unique(index.store.keys)) < len(np.unique(codes))
    shared = []
    inner = zm.split_zranges

    def spy(zlo, zhi, d):
        litmax, bigmin = inner(zlo, zhi, d)
        shared.append(int((litmax.astype(np.float32) == bigmin.astype(np.float32)).sum()))
        return litmax, bigmin

    monkeypatch.setattr(zm, "split_zranges", spy)
    calls = _spy_runs(index, monkeypatch)
    windows = _special_windows(data, index.bounds) + _data_windows(data, 200, 8)
    got = index.window_queries(windows)
    assert sum(shared) > 0  # the case occurred
    (lo, hi, owner), = calls
    same = owner[1:] == owner[:-1]
    assert np.all(lo <= hi) and np.all(hi[:-1][same] <= lo[1:][same])
    assert_windows("ZM", data, windows, got)  # a multiset check: no row twice


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def test_scan_ratio_on_osm1_20k(osm20k, monkeypatch):
    """The dagger count the split exists for, on a fixed input: rows scanned
    per row returned over 256 data-centred 1e-4 windows in one batch (about
    8.6 when each window's whole Z-hull is scanned, as before)."""
    index = _build(osm20k, "float64")
    windows = _data_windows(osm20k, 256, 0)
    before = index.query_stats.points_scanned
    returned = sum(map(len, index.window_queries(windows)))
    scanned = index.query_stats.points_scanned - before
    assert returned > 0 and scanned / returned <= 2.5

    # A batch of one at this scale is not worth a round: one interval, as
    # wide as the corner codes' ranks say.
    rounds = []
    inner = zm.split_zranges
    monkeypatch.setattr(zm, "split_zranges", lambda *a: rounds.append(1) or inner(*a))
    keys = index.store.keys
    for window in windows[:40]:
        z = index.map(np.array([window.lo, window.hi]))
        hull = np.searchsorted(keys, z[1], side="right") - np.searchsorted(keys, z[0], side="left")
        before = index.query_stats.points_scanned
        index.window_queries([window])
        assert index.query_stats.points_scanned - before == hull
    assert not rounds
    index.window_queries(windows)
    assert rounds


def test_counters_describe_the_scan(index, data, monkeypatch):
    """``points_scanned`` and the block reads are those of the runs actually
    scanned; the range-width histogram gets one width per window."""
    windows = _data_windows(data, 128, 5)
    calls = _spy_runs(index, monkeypatch)
    tracer = get_tracer()
    tracer.enable()
    tracer.reset()
    get_registry().clear()
    try:
        index.store.reset_block_reads()
        before = index.query_stats.points_scanned
        index.window_queries(windows)
        (lo, hi, owner), = calls
        assert len(lo) > len(windows)
        assert index.query_stats.points_scanned - before == int((hi - lo).sum())
        charged = index.store.block_reads
        index.store.reset_block_reads()
        assert charged == index.store.charge_block_reads(*merge_ranges(lo, hi))
        hist = get_registry().histogram(
            "query.predicted_range_width", base=1.0, n_buckets=28, index="ZM"
        )
        assert hist.count == len(windows)
        assert hist.total == float((hi - lo).sum())
        names = {s.name for s in tracer.spans()}
        assert {"query.window_batch", "query.refine"} <= names
    finally:
        tracer.disable()
        tracer.reset()
        get_registry().clear()


# ----------------------------------------------------------------------
# The multi-run kernel
# ----------------------------------------------------------------------
def _store(n, seed=0):
    pts = np.random.default_rng(seed).random((n, 2))
    return BlockStore(pts, pts[:, 0])


def _reference(store, lo, hi, win_lo, win_hi, owner):
    """Filter each run on its own and stack a window's pieces."""
    out = [[] for _ in win_lo]
    for a, b, o in zip(lo, hi, owner):
        seg = store.points[max(a, 0) : max(b, 0)]
        inside = np.all((seg >= win_lo[o]) & (seg <= win_hi[o]), axis=1)
        out[o].append(seg[inside])
    return [np.vstack(p) if p else np.empty((0, 2)) for p in out]


@pytest.mark.parametrize("buffer_rows", [None, 7, 1])
def test_kernel_runs_and_owners(buffer_rows, monkeypatch):
    if buffer_rows:  # windows far larger than the buffer: filtered in pieces
        monkeypatch.setattr(batching, "_REFINE_BUFFER_ROWS", buffer_rows)
    store = _store(500)
    rng = np.random.default_rng(1)
    win_lo = rng.random((6, 2)) * 0.5
    win_hi = win_lo + 0.5
    # Window 1 has no run, window 3 an empty and an out-of-range one; runs
    # of one window need not be ascending: rows come back in run order.
    owner = np.array([0, 0, 2, 3, 3, 3, 4, 5, 5])
    lo = np.array([10, 200, 0, 50, 700, 40, -5, 300, 100])
    hi = np.array([90, 260, 500, 50, 900, 45, 30, 420, 180])
    got = batch_window_refine(store, lo, hi, win_lo, win_hi, owner)
    want = _reference(store, lo, hi, win_lo, win_hi, owner)
    assert len(got) == 6
    for g, r in zip(got, want):
        assert g.dtype == np.float64 and g.shape == r.shape and g.tobytes() == r.tobytes()
    assert sum(map(len, got)) > 0 and len(got[1]) == 0
    # Without owners, run i is window i's.
    got = batch_window_refine(store, lo[:6], hi[:6], win_lo, win_hi)
    want = _reference(store, lo[:6], hi[:6], win_lo, win_hi, np.arange(6))
    assert all(g.tobytes() == r.tobytes() for g, r in zip(got, want))


def test_kernel_memory_is_bounded_by_its_buffer():
    """1 024 windows that each scan all of a 300 000-row store: the rows a
    flattened candidate vector would hold run to gigabytes."""
    store = _store(300_000)
    w = 1_024
    win_lo = np.full((w, 2), 0.5)
    win_hi = win_lo + 1e-3
    lo, hi = np.zeros(w, dtype=np.int64), np.full(w, len(store))
    tracemalloc.start()
    try:
        got = batch_window_refine(store, lo[:8], hi[:8], win_lo[:8], win_hi[:8])
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        got = batch_window_refine(store, lo, hi, win_lo, win_hi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(len(g) == len(got[0]) for g in got)
    assert peak < 8 * 2**20
