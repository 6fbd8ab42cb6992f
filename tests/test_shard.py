"""Tests for the sharded serving tier (shard map, router, recovery).

The parity tests are the acceptance centrepiece: every query kind routed
through the multi-process scatter-gather tier must return the same
answers as one unsharded index over the same data — bit-identical after
canonical (lexsort) ordering, since a cross-shard merge cannot reproduce
a single index's internal scan order.

The failure tests exercise the PR 7 vocabulary through the router:
overload retry, read-only partial degradation, and the
kill-one-shard-mid-stream scenario asserting zero acknowledged-update
loss while the surviving shards keep serving.
"""

import json
import threading
import warnings

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.update_processor import UpdateProcessor
from repro.indices import ZMIndex
from repro.obs.metrics import histogram_stat, series_sum
from repro.serve import ServerOverloaded, ServerReadOnly
from repro.shard import (
    ShardHandle,
    ShardMap,
    ShardRouter,
    ShardTimeout,
    ShardUnavailable,
    WorkerSpec,
    build_cluster,
    open_cluster,
)
from repro.shard.router import MAX_RETRIES
from repro.shard.shardmap import BITS
from repro.serve.requests import KNN, POINT, WINDOW, Request
from repro.shard.worker import PackedRows, _dispatch
from repro.spatial.rect import Rect
from repro.spatial.zcurve import zvalues
from tests.brute import apply_op, canon, make_schedule, point_truth, processor_windows

_ELSI = {"train_epochs": 40, "seed": 0}
_SERVE = {"max_wait_seconds": 0.0}


# ----------------------------------------------------------------------
# Shard map units (no processes)
# ----------------------------------------------------------------------
def _scalar_span(smap, lo, hi):
    """One box's shard span the way the per-query router computed it:
    every shard without a finite Z-order corner interval, else the shards
    of the two corner codes, one ``searchsorted`` each."""
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        return 0, smap.n_shards - 1
    code_lo, code_hi = zvalues(np.stack([lo, hi]), smap.bounds, bits=BITS)
    return (
        int(np.searchsorted(smap.boundaries, code_lo, side="right")),
        int(np.searchsorted(smap.boundaries, code_hi, side="right")),
    )


class TestShardMap:
    def test_quantile_boundaries_balance_points(self, osm_points):
        smap = ShardMap.from_points(osm_points, 4)
        owners = smap.shard_of_points(osm_points)
        counts = np.bincount(owners, minlength=4)
        assert counts.min() > 0
        # Rank quantiles: shards within a few percent of n/4 barring ties.
        assert counts.max() <= 1.2 * len(osm_points) / 4

    def test_duplicate_keys_never_straddle_a_cut(self):
        # Heavy duplication: 10 distinct locations x 100 copies each.
        rng = np.random.default_rng(3)
        base = rng.random((10, 2))
        pts = np.repeat(base, 100, axis=0)
        smap = ShardMap.from_points(pts, 3)
        owners = smap.shard_of_points(pts)
        keys = smap.keys_of(pts)
        for key in np.unique(keys):
            assert len(np.unique(owners[keys == key])) == 1

    def test_too_many_shards_for_distinct_keys_raises(self):
        pts = np.repeat(np.random.default_rng(0).random((2, 2)), 50, axis=0)
        with pytest.raises(ValueError, match="shards"):
            ShardMap.from_points(pts, 8)

    def test_fewer_points_than_shards_raises(self):
        # n < n_shards: must raise, never silently build an empty shard.
        pts = np.random.default_rng(1).random((3, 2))
        with pytest.raises(ValueError, match="non-empty shards"):
            ShardMap.from_points(pts, 8)
        owners = ShardMap.from_points(pts, 3).shard_of_points(pts)
        assert set(owners.tolist()) == {0, 1, 2}

    def test_window_routing_covers_contained_points(self, osm_points):
        smap = ShardMap.from_points(osm_points, 5)
        owners = smap.shard_of_points(osm_points)
        rng = np.random.default_rng(7)
        for _ in range(25):
            center = osm_points[rng.integers(len(osm_points))]
            window = Rect.centered(center, float(rng.uniform(0.01, 0.3)))
            visited = set(smap.shards_for_window(window))
            inside = owners[window.contains_points(osm_points)]
            assert set(inside.tolist()) <= visited

    def test_ball_routing_covers_points_in_radius(self, osm_points):
        smap = ShardMap.from_points(osm_points, 5)
        owners = smap.shard_of_points(osm_points)
        rng = np.random.default_rng(11)
        for _ in range(25):
            q = osm_points[rng.integers(len(osm_points))]
            radius = float(rng.uniform(0.01, 0.2))
            first, last = smap.shard_spans(q - radius, q + radius)
            visited = set(range(int(first[0]), int(last[0]) + 1))
            dist = np.sqrt(((osm_points - q) ** 2).sum(axis=1))
            assert set(owners[dist <= radius].tolist()) <= visited
        first, last = smap.shard_spans(osm_points[0] - np.inf, osm_points[0] + np.inf)
        assert (first.tolist(), last.tolist()) == ([0], [4])

    def test_zorder_interval_matches_key_arithmetic(self, osm_points):
        smap = ShardMap.from_points(osm_points, 4)
        window = Rect((0.2, 0.3), (0.4, 0.5))
        corners = np.stack([window.lo_array, window.hi_array])
        lo, hi = zvalues(corners, smap.bounds, bits=BITS)
        first, last = np.searchsorted(smap.boundaries, [lo, hi], side="right")
        assert list(smap.shards_for_window(window)) == list(range(first, last + 1))

    def test_shard_spans_equals_scalar_definition(self, osm_points):
        smap = ShardMap.from_points(osm_points, 5)
        rng = np.random.default_rng(13)
        centres = rng.uniform(-0.5, 1.5, size=(200, 2))  # many outside the map
        half = rng.uniform(0.0, 0.4, size=(200, 1))
        half[::7] = 0.0  # zero-extent windows / radius-0 balls
        half[3::11] = np.inf  # unbounded balls
        centres[:5], half[:5] = (-2.0, 1.75), 0.25  # wholly outside the map
        lo, hi = centres - half, centres + half
        first, last = smap.shard_spans(lo, hi)
        assert first.shape == last.shape == (200,)
        want = [_scalar_span(smap, a, b) for a, b in zip(lo, hi)]
        assert list(zip(first.tolist(), last.tolist())) == want
        assert len(set(want)) > 5  # the spans do vary
        # The scalar spelling is a batch-of-one call of the same function.
        for i in (0, 7, 14, 50, 199):
            span = list(range(want[i][0], want[i][1] + 1))
            if np.isfinite(half[i, 0]):
                window = Rect.from_arrays(lo[i], hi[i])
                assert list(smap.shards_for_window(window)) == span

    def test_save_load_roundtrip(self, osm_points, tmp_path):
        smap = ShardMap.from_points(osm_points, 4)
        path = smap.save(tmp_path / "shard_map.json")
        loaded = ShardMap.load(path)
        np.testing.assert_array_equal(loaded.boundaries, smap.boundaries)
        np.testing.assert_array_equal(
            loaded.shard_of_points(osm_points), smap.shard_of_points(osm_points)
        )

    def test_a_map_in_the_format_before_the_curve_was_fixed_loads(self, osm_points, tmp_path):
        """A ``shard_map.json`` as written when the curve and bit count
        were settable (Z-order at 16 bits, the only map a cluster built)
        loads, routes every point and window as it says, and is written
        back byte for byte."""
        smap = ShardMap.from_points(osm_points, 3)
        written = {
            "bits": 16,
            "boundaries": [int(b) for b in smap.boundaries],
            "bounds": {
                "hi": smap.bounds.hi_array.tolist(),
                "lo": smap.bounds.lo_array.tolist(),
            },
            "curve": "zorder",
            "n_shards": 3,
            "version": 1,
        }
        path = tmp_path / "shard_map.json"
        path.write_text(json.dumps(written, indent=2, sort_keys=True))
        loaded = ShardMap.load(path)
        codes = zvalues(osm_points, loaded.bounds, bits=16)
        np.testing.assert_array_equal(
            loaded.shard_of_points(osm_points),
            np.searchsorted(np.asarray(written["boundaries"], dtype=np.uint64), codes, side="right"),
        )
        np.testing.assert_array_equal(
            loaded.shard_of_points(osm_points), smap.shard_of_points(osm_points)
        )
        lo, hi = osm_points[:50] - 0.05, osm_points[:50] + 0.05
        for got, want in zip(loaded.shard_spans(lo, hi), smap.shard_spans(lo, hi)):
            np.testing.assert_array_equal(got, want)
        assert loaded.save(tmp_path / "again.json").read_text() == path.read_text()

    @pytest.mark.parametrize(
        "field, value", [("curve", "hilbert"), ("bits", 14), ("bits", 32)]
    )
    def test_a_map_naming_another_curve_or_bit_count_is_refused(
        self, osm_points, tmp_path, field, value
    ):
        path = ShardMap.from_points(osm_points, 2).save(tmp_path / "shard_map.json")
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=repr(value)):
            ShardMap.load(path)

    def test_single_shard_owns_everything(self, osm_points):
        smap = ShardMap.from_points(osm_points, 1)
        assert not smap.shard_of_points(osm_points).any()
        assert list(smap.shards_for_window(Rect.unit())) == [0]


# ----------------------------------------------------------------------
# Serve-core batch request kinds (no processes)
# ----------------------------------------------------------------------
class TestBatchRequests:
    @pytest.fixture(scope="class")
    def server(self, osm_points):
        config = ELSIConfig(train_epochs=40)
        index = ZMIndex(builder=ELSIModelBuilder(config, method="SP"))
        index.build(osm_points)
        from repro.serve import IndexServer, ServeConfig

        with IndexServer(index, ServeConfig(), elsi_config=config) as server:
            yield server

    def test_point_batch_matches_scalar_submits(self, server, osm_points):
        probes = np.vstack([osm_points[:20], osm_points[:20] + 3.0])
        batched = server.submit_point_batch(probes).wait(20)
        scalar = [server.submit_point(p).wait(20) for p in probes]
        np.testing.assert_array_equal(np.asarray(batched), np.asarray(scalar))

    def test_window_batch_matches_scalar_submits(self, server):
        windows = [
            Rect.centered(np.array([x, x]), 0.1) for x in (0.25, 0.5, 0.75)
        ]
        rows, counts = server.submit(Request(
            WINDOW,
            win_lo=np.vstack([w.lo_array for w in windows]),
            win_hi=np.vstack([w.hi_array for w in windows]),
        )).wait(20)
        assert len(counts) == len(windows) and counts.sum() == len(rows)
        for got, window in zip(PackedRows(rows, counts).split(), windows):
            want = server.submit_window(window).wait(20)
            np.testing.assert_array_equal(canon(got), canon(want))

    def test_knn_batch_matches_scalar_submits(self, server, osm_points):
        batched = server.submit(Request(KNN, osm_points[:5], 6)).wait(20)
        for got, q in zip(batched, osm_points[:5]):
            want = server.submit_knn(q, 6).wait(20)
            np.testing.assert_array_equal(canon(got), canon(want))

    def test_dispatch_queues_the_unpickled_sub_batch_itself(
        self, server, osm_points, monkeypatch
    ):
        """A routed sub-batch arrives unpickled, an array nothing else
        holds: the worker queues it as it came, with no second copy, and
        answers as the same request submitted in process."""
        queued = []
        submit = server.submit
        monkeypatch.setattr(server, "submit", lambda r: queued.append(r) or submit(r))
        spec = WorkerSpec(shard_id=0, directory="unused")
        probes = np.vstack([osm_points[:20], osm_points[:20] + 3.0])
        got = _dispatch(server, spec, "point_batch", (probes,), 20.0)
        assert queued[-1].points is probes
        np.testing.assert_array_equal(got, server.submit_point_batch(probes).wait(20))

        lo, hi = osm_points[:6] - 0.05, osm_points[:6] + 0.05
        got = _dispatch(server, spec, "window_batch", (lo, hi), 20.0)
        assert queued[-1].win_lo is lo and queued[-1].win_hi is hi
        rows, counts = server.submit(Request(WINDOW, win_lo=lo, win_hi=hi)).wait(20)
        np.testing.assert_array_equal(got.rows, rows)
        np.testing.assert_array_equal(got.counts, counts)

        queries = osm_points[:5].copy()
        got = _dispatch(server, spec, "knn_batch", (queries, 4), 20.0)
        assert queued[-1].points is queries
        for a, b in zip(got.split(), server.submit(Request(KNN, queries, 4)).wait(20)):
            np.testing.assert_array_equal(a, b)

    def test_batch_requests_validate_payloads(self):
        with pytest.raises(ValueError, match="points"):
            Request(kind=POINT)
        with pytest.raises(ValueError, match="k"):
            Request(kind=KNN, points=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="win_lo"):
            Request(kind="window")
        with pytest.raises(ValueError, match="integer"):
            Request(kind=KNN, points=np.zeros((2, 2)), k=2.5)

    def test_router_refuses_a_non_integer_k(self):
        handle = _StubHandle(0)
        router = _stub_router([handle])
        for k in (0, 2.5, np.float64(3.0)):
            with pytest.raises(ValueError, match="k must be"):
                router.knn_queries(np.zeros((2, 2)), k)
        assert handle.requests == []


# ----------------------------------------------------------------------
# Router failure handling against stub handles (no processes)
# ----------------------------------------------------------------------
class _StubHandle:
    def __init__(self, shard_id, fail=(), result=True):
        self.shard_id = shard_id
        self.fail = list(fail)
        self.result = result
        self.requests = []
        self.respawns = 0
        self._alive = True

    def alive(self):
        return self._alive

    def respawn(self):
        self.respawns += 1
        self._alive = True
        self.fail = []
        return {}

    def request(self, command, *payload, timeout=None, trace=None):
        self.requests.append(command)
        if not self._alive:
            raise ShardUnavailable("no live worker")
        if self.fail:
            exc = self.fail.pop(0)
            if isinstance(exc, ShardTimeout):
                self._alive = False  # real handles poison themselves
            raise exc
        if command == "point_batch":
            return np.ones(len(payload[0]), dtype=bool)
        if command in ("window_batch", "knn_batch"):  # every answer empty
            n, d = payload[0].shape
            return PackedRows.pack([np.empty((0, d))] * n, d)
        if command == "status":
            return {"health": "healthy", "generation": 0, "n_points": 1}
        return self.result

    def close(self):
        pass


def _stub_router(handles):
    smap = ShardMap(np.asarray([2**30] * 0, dtype=np.uint64), Rect.unit())
    return ShardRouter(smap, handles)


class TestRouterFailureHandling:
    def test_overloaded_retries_then_succeeds(self):
        handle = _StubHandle(0, fail=[ServerOverloaded("full")] * 2)
        router = _stub_router([handle])
        hits = router.point_queries(np.zeros((3, 2)))
        assert hits.all()
        assert handle.requests.count("point_batch") == 3
        export = router.registry.export()
        assert series_sum(export, "router.retries", reason="overloaded") == 2

    def test_overloaded_beyond_budget_raises(self):
        handle = _StubHandle(0, fail=[ServerOverloaded("full")] * 9)
        router = _stub_router([handle])
        with pytest.raises(ServerOverloaded):
            router.point_queries(np.zeros((1, 2)))
        assert handle.requests.count("point_batch") == MAX_RETRIES + 1

    def test_dead_shard_respawned_for_queries(self):
        handle = _StubHandle(0, fail=[ShardUnavailable("dead")])
        handle._alive = False
        router = _stub_router([handle])
        assert router.point_queries(np.zeros((2, 2))).all()
        assert handle.respawns == 1

    def test_mid_request_death_not_retried_for_updates(self):
        handle = _StubHandle(0, fail=[ShardUnavailable("died")])
        router = _stub_router([handle])
        with pytest.raises(ShardUnavailable):
            router.insert(np.array([0.5, 0.5]))
        assert handle.respawns == 0  # at-most-once: no blind redo

    def test_read_only_surfaces_with_partial_degradation(self):
        """A read-only shard rejects its update; the other shard keeps
        absorbing its own."""
        handles = [_StubHandle(0, fail=[ServerReadOnly("read only")]), _StubHandle(1)]
        smap = ShardMap(np.asarray([2**31], dtype=np.uint64), Rect.unit())
        router = ShardRouter(smap, handles)
        low, high = np.array([0.1, 0.1]), np.array([0.9, 0.9])
        assert smap.shard_of_points(np.stack([low, high])).tolist() == [0, 1]
        with pytest.raises(ServerReadOnly):
            router.insert(low)
        router.insert(high)
        export = router.registry.export()
        assert series_sum(export, "router.read_only_rejections", shard=0) == 1
        assert series_sum(export, "router.updates", op="insert") == 1
        assert router.health_summary()["overall"] == "healthy"

    def test_timed_out_shard_respawned_for_queries(self):
        # A timeout poisons the handle; the router must respawn (killing
        # the wedged worker) and retry idempotent queries transparently.
        handle = _StubHandle(0, fail=[ShardTimeout("wedged")])
        router = _stub_router([handle])
        assert router.point_queries(np.zeros((2, 2))).all()
        assert handle.respawns == 1
        export = router.registry.export()
        assert series_sum(export, "router.shard_timeouts", shard=0) == 1

    def test_timeout_on_update_surfaces_without_resend(self):
        handle = _StubHandle(0, fail=[ShardTimeout("wedged")])
        router = _stub_router([handle])
        with pytest.raises(ShardTimeout):
            router.insert(np.array([0.5, 0.5]))
        assert handle.respawns == 0  # outcome unknown: never resent

    def test_wedged_shard_reported_down_in_health_and_stats(self):
        handle = _StubHandle(
            0,
            fail=[
                ShardTimeout("wedged"),
                ShardTimeout("wedged"),
            ],
        )
        router = _stub_router([handle])
        health = router.health_summary()
        assert health["shards"][0]["health"] == "down"
        assert health["overall"] == "down"
        handle._alive = True  # wedged again for the stats probe
        stats = router.stats_snapshot()
        assert series_sum(stats, "telemetry.scrape_failures", shard=0) == 1
        assert series_sum(stats, "telemetry.shard_up", shard=0) == 0.0

    def test_update_after_a_timed_out_one_respawns_then_applies(self):
        handle = _StubHandle(0, fail=[ShardTimeout("wedged")])
        router = _stub_router([handle])
        # The first update timed out (surfaced, never resent); the poisoned
        # handle is respawned before the second, which applies cleanly.
        with pytest.raises(ShardTimeout):
            router.insert(np.array([0.1, 0.1]))
        assert handle.respawns == 0
        router.insert(np.array([0.9, 0.9]))
        assert handle.respawns == 1
        assert handle.requests == ["insert", "insert"]


#: Updates a router over a 2-D map must refuse before routing them.
MALFORMED = {
    "nan": np.array([np.nan, 0.5]),
    "+inf": np.array([0.5, np.inf]),
    "-inf": np.array([-np.inf, 0.5]),
    "3d": np.array([0.1, 0.2, 0.3]),
    "1d": np.array([0.5]),
}


class TestRouterRefusesMalformedUpdates:
    """A NaN, infinite or wrong-dimensional point is a ``ValueError``
    before the router maps it to a shard (no cast warning) or sends
    anything."""

    @pytest.fixture()
    def router(self):
        handle = _StubHandle(0)
        router = _stub_router([handle])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield router
        assert handle.requests == []

    @pytest.mark.parametrize("point", MALFORMED.values(), ids=MALFORMED.keys())
    @pytest.mark.parametrize("op", ["insert", "delete"])
    def test_single_update(self, router, op, point):
        with pytest.raises(ValueError, match="update needs"):
            getattr(router, op)(point)


class TestRouterRoutesBatches:
    """The router encodes a batch's corners in O(1) ``keys_of`` calls; a
    per-query routing loop would make the count grow with the batch."""

    @pytest.fixture()
    def counted(self, osm_points, monkeypatch):
        smap = ShardMap.from_points(osm_points, 3)
        calls = []
        keys_of = ShardMap.keys_of
        monkeypatch.setattr(
            ShardMap,
            "keys_of",
            lambda self, points: calls.append(len(points)) or keys_of(self, points),
        )
        router = ShardRouter(smap, [_StubHandle(i) for i in range(3)])
        yield router, calls
        router.close()

    @pytest.mark.parametrize("w", [1, 8, 200])
    def test_window_batch_is_one_keys_of_call(self, counted, osm_points, w):
        router, calls = counted
        windows = [Rect.centered(c, 0.3) for c in osm_points[:w]]
        out = router.window_queries(windows)
        assert calls == [2 * w]  # every corner, once
        assert [r.shape for r in out] == [(0, 2)] * w
        commands = [h.requests for h in router.handles]
        assert all(c in ([], ["window_batch"]) for c in commands)

    @pytest.mark.parametrize("b", [1, 8, 200])
    def test_knn_batch_is_two_keys_of_calls(self, counted, osm_points, b):
        router, calls = counted
        out = router.knn_queries(osm_points[:b], 4)
        # Home shards, then both ends of every ball (the stubs answer with
        # nothing, so every radius is unbounded and round two runs).
        assert calls == [b, 2 * b]
        assert [r.shape for r in out] == [(0, 2)] * b
        assert sum(len(h.requests) for h in router.handles) <= 6


# ----------------------------------------------------------------------
# Handle wire protocol: sequence ids and timeout poisoning (no processes)
# ----------------------------------------------------------------------
class _FakeConn:
    def __init__(self, replies=()):
        self.sent = []
        self.replies = list(replies)

    def send(self, message):
        self.sent.append(message)

    def poll(self, _timeout=0):
        return bool(self.replies)

    def recv(self):
        if not self.replies:
            raise EOFError
        return self.replies.pop(0)

    def close(self):
        pass


class _FakeProc:
    exitcode = None

    def is_alive(self):
        return True


def _bare_handle(conn):
    handle = ShardHandle.__new__(ShardHandle)
    handle.spec = WorkerSpec(shard_id=0, directory=".")
    handle._lock = threading.RLock()
    handle._seq = 0
    handle._poisoned = False
    handle._proc = _FakeProc()
    handle._conn = conn
    handle._ready_status = None
    return handle


class TestHandleProtocol:
    def test_request_carries_seq_timeout_and_trace_slot(self):
        conn = _FakeConn([(1, "ok", {"health": "healthy"}, None)])
        handle = _bare_handle(conn)
        assert handle.request("status", timeout=7.5) == {"health": "healthy"}
        assert conn.sent == [(1, 7.5, "status", None)]

    def test_stale_reply_discarded_by_seq(self):
        # A leftover reply from an earlier (timed-out) request must never
        # be returned as the answer to the current one.
        conn = _FakeConn([(1, "ok", "stale", None), (2, "ok", "fresh", None)])
        handle = _bare_handle(conn)
        handle._seq = 1  # request #1 already timed out in the past
        assert handle.request("status", timeout=5.0) == "fresh"

    def test_timeout_poisons_handle(self):
        handle = _bare_handle(_FakeConn())  # worker never answers
        with pytest.raises(ShardTimeout):
            handle.request("status", timeout=0.15)
        assert not handle.alive()  # process runs, but handle refuses
        with pytest.raises(ShardUnavailable, match="poisoned"):
            handle.request("status", timeout=0.15)

    def test_worker_error_reply_raises(self):
        conn = _FakeConn([(1, "err", ServerOverloaded("full"), None)])
        handle = _bare_handle(conn)
        with pytest.raises(ServerOverloaded):
            handle.request("status", timeout=5.0)
        assert handle.alive()  # typed errors don't poison the pipe


# ----------------------------------------------------------------------
# Multi-process parity vs the unsharded reference
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster(osm_points, tmp_path_factory):
    directory = tmp_path_factory.mktemp("shard-cluster")
    router = build_cluster(
        osm_points, directory, n_shards=3, elsi=_ELSI, serve=_SERVE
    )
    yield router
    router.close()


@pytest.fixture(scope="module")
def reference(osm_points):
    """The unsharded reference: one index over the same points."""
    config = ELSIConfig(**_ELSI)
    index = ZMIndex(builder=ELSIModelBuilder(config, method="SP"))
    index.build(osm_points)
    return UpdateProcessor(index)


class TestClusterParity:
    def test_point_parity(self, cluster, reference, osm_points):
        rng = np.random.default_rng(5)
        probes = np.vstack(
            [osm_points[::7], rng.uniform(0.0, 1.0, size=(64, 2))]
        )
        got = cluster.point_queries(probes)
        want = reference.point_queries(probes)
        np.testing.assert_array_equal(np.asarray(got), np.asarray(want))

    def test_window_parity_bit_identical(self, cluster, reference, osm_points):
        rng = np.random.default_rng(6)
        windows = [
            Rect.centered(osm_points[rng.integers(len(osm_points))],
                          float(rng.uniform(0.02, 0.3)))
            for _ in range(12)
        ]
        got = cluster.window_queries(windows)
        want = processor_windows(reference, windows)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(canon(g), canon(w))

    def test_knn_parity_bit_identical(self, cluster, reference, osm_points):
        queries = osm_points[::211]
        for k in (1, 5, 16):
            got = cluster.knn_queries(queries, k)
            want = reference.knn_queries(queries, k)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(canon(g), canon(w))

    def test_knn_k_larger_than_shard(self, cluster, reference, osm_points):
        # k close to a shard's whole population forces round two to widen
        # across every shard.
        got = cluster.knn_queries(osm_points[:1], 700)
        want = reference.knn_queries(osm_points[:1], 700)
        np.testing.assert_array_equal(canon(got[0]), canon(want[0]))

    def test_update_routing_parity(self, cluster, reference, osm_points):
        rng = np.random.default_rng(9)
        inserts = rng.uniform(0.0, 1.0, size=(24, 2))
        victims = osm_points[rng.choice(len(osm_points), 8, replace=False)]
        for p in inserts:
            cluster.insert(p)
            reference.insert(p)
        for p in victims:
            assert cluster.delete(p) == reference.delete(p)
        probes = np.vstack([inserts, victims])
        np.testing.assert_array_equal(
            cluster.point_queries(probes), reference.point_queries(probes)
        )
        window = Rect((0.0, 0.0), (1.0, 1.0))
        np.testing.assert_array_equal(
            canon(cluster.window_queries([window])[0]),
            canon(reference.window_query(window)),
        )

    def test_health_and_merged_stats(self, cluster):
        health = cluster.health_summary()
        assert health["overall"] == "healthy"
        assert len(health["shards"]) == 3
        stats = cluster.stats_snapshot()
        # Counters from all three workers summed into one series.
        completed = series_sum(stats, "serve.requests_completed")
        assert completed > 0
        # Histograms merged with buckets, so a fleet p99 exists.
        latency = "serve.request_latency_seconds"
        assert histogram_stat(stats, latency, "count") == completed
        assert 0.0 < histogram_stat(stats, latency, "p99") <= histogram_stat(
            stats, latency, "max"
        )
        for shard in range(3):
            assert series_sum(stats, "telemetry.shard_up", shard=shard) == 1.0
        # Router-side counters ride along in the same view.
        assert "router.queries" in stats


# ----------------------------------------------------------------------
# Router contract: row order, tie-breaks, result shapes (real processes)
# ----------------------------------------------------------------------
_LATTICE_SIDE = 32


@pytest.fixture(scope="module")
def lattice():
    """A 32 x 32 lattice with power-of-two spacing: distances between its
    points are exact in floating point, so ties are real ties."""
    axis = np.arange(_LATTICE_SIDE) / _LATTICE_SIDE
    return np.array([(x, y) for x in axis for y in axis])


@pytest.fixture(scope="module")
def lattice_cluster(lattice, tmp_path_factory):
    router = build_cluster(
        lattice, tmp_path_factory.mktemp("shard-lattice"), n_shards=3,
        elsi=_ELSI, serve=_SERVE,
    )
    yield router
    router.close()


class TestRouterContract:
    def test_window_rows_are_shard_major_in_scan_order(self, lattice_cluster, lattice):
        smap = lattice_cluster.shard_map
        rng = np.random.default_rng(21)
        windows = [
            Rect.centered(lattice[rng.integers(len(lattice))], float(side))
            for side in rng.uniform(0.05, 0.9, 30)
        ]
        fanouts = {len(smap.shards_for_window(win)) for win in windows}
        assert fanouts == {1, 2, 3}
        got = lattice_cluster.window_queries(windows)
        for window, rows in zip(windows, got):
            # Each visited shard's own answer to this one window, in shard
            # order: what the router concatenated before it routed batches.
            lo, hi = window.lo_array[None, :], window.hi_array[None, :]
            per_shard = [
                lattice_cluster.handles[sid].request("window_batch", lo, hi)[0]
                for sid in smap.shards_for_window(window)
            ]
            want = np.vstack(per_shard)
            assert rows.dtype == np.float64 and rows.tobytes() == want.tobytes()
            inside = lattice[window.contains_points(lattice)]
            np.testing.assert_array_equal(canon(rows), canon(inside))

    def test_mixed_fanout_batch_returns_one_array_per_window(
        self, lattice_cluster, lattice
    ):
        smap = lattice_cluster.shard_map
        windows = [
            Rect.centered(lattice[0], 0.1),  # one shard
            Rect((0.0, 0.0), (1.0, 1.0)),  # all three
            Rect((-3.0, -3.0), (-2.0, -2.0)),  # outside the data: no rows
            Rect((0.51, 0.51), (0.52, 0.52)),  # between lattice points: no rows
            Rect.centered(lattice[-1], 0.1),  # one shard, the last
            Rect((0.0, 0.0), (1.0, 1.0)),
        ]
        assert [len(smap.shards_for_window(win)) for win in windows] == [
            1, 3, 1, 1, 1, 3,
        ]
        got = lattice_cluster.window_queries(windows)
        assert len(got) == len(windows)
        for window, rows in zip(windows, got):
            assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
            assert rows.ndim == 2 and rows.shape[1] == 2
            inside = lattice[window.contains_points(lattice)]
            np.testing.assert_array_equal(canon(rows), canon(inside))
        assert got[2].shape == got[3].shape == (0, 2)
        assert len(got[1]) == len(lattice)

    def test_knn_ties_across_a_shard_boundary_break_by_coordinates(
        self, lattice_cluster, lattice
    ):
        smap = lattice_cluster.shard_map
        step = 1.0 / _LATTICE_SIDE
        ring = step * np.array([[-1, 0], [0, -1], [0, 1], [1, 0]])
        interior = lattice[
            ((lattice > 0) & (lattice < (_LATTICE_SIDE - 1) * step)).all(axis=1)
        ]
        # Queries whose four equidistant neighbours live on several shards.
        straddling = np.array(
            [q for q in interior if len(set(smap.shard_of_points(q + ring))) > 1]
        )
        assert len(straddling) >= 10
        got = lattice_cluster.knn_queries(straddling, 5)
        for q, rows in zip(straddling, got):
            # Itself, then the ring at distance exactly `step`, ordered by
            # (x, y) whichever shard each neighbour came from.
            want = np.vstack([q, q + ring])
            assert rows.tobytes() == want.tobytes()
        # The general case against brute force (distance, then x, then y).
        rng = np.random.default_rng(22)
        queries = rng.uniform(0.0, 1.0, size=(40, 2))
        for q, rows in zip(queries, lattice_cluster.knn_queries(queries, 7)):
            diff = lattice - q
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            order = np.lexsort((lattice[:, 1], lattice[:, 0], dist))[:7]
            np.testing.assert_array_equal(
                np.sort(dist[order]),
                np.sort(np.sqrt(((rows - q) ** 2).sum(axis=1))),
            )
            assert rows.shape == (7, 2) and rows.dtype == np.float64

    def test_knn_outside_every_shards_bounds_equals_brute_force(
        self, lattice_cluster, lattice
    ):
        # Farther than twice the data extent from the data: each shard's
        # first window is seeded from indexed points, so it still reaches
        # them (the density-seeded search gave up and returned nothing).
        queries = np.array([[5.0, 5.0], [-3.0, 0.5], [0.5, -40.0], [1e6, -1e6]])
        got = lattice_cluster.knn_queries(queries, 6)
        for q, rows in zip(queries, got):
            diff = lattice - q
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            want = lattice[np.lexsort((lattice[:, 1], lattice[:, 0], dist))[:6]]
            assert rows.dtype == np.float64 and rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k, round_two", [(5, "window_batch"), (700, "knn_batch")])
    def test_knn_round_two_asks_for_the_ball_once_a_radius_is_known(
        self, lattice_cluster, lattice, monkeypatch, k, round_two
    ):
        # A home shard that holds k points bounds the answer: the other
        # shards are asked for the ball's bounding rect, not for their own
        # k nearest (to a point outside their data: tens of thousands of
        # rows scanned).  A home shard short of k (341 or 342 points each
        # here) gives no radius, so the others are asked for their k nearest.
        sent = []
        request = ShardHandle.request

        def recording(handle, command, *payload, **kwargs):
            sent.append((command, len(payload[0])))
            return request(handle, command, *payload, **kwargs)

        monkeypatch.setattr(ShardHandle, "request", recording)
        rng = np.random.default_rng(23)
        queries = rng.uniform(-0.1, 1.1, size=(60, 2))  # off the lattice: no ties
        got = lattice_cluster.knn_queries(queries, k)
        homes = len(np.unique(lattice_cluster.shard_map.shard_of_points(queries)))
        assert {command for command, _n in sent[:homes]} == {"knn_batch"}
        assert sum(n for _command, n in sent[:homes]) == len(queries)
        assert {command for command, _n in sent[homes:]} == {round_two}
        for q, rows in zip(queries, got):
            diff = lattice - q
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            want = lattice[np.lexsort((lattice[:, 1], lattice[:, 0], dist))[:k]]
            assert rows.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Wedged-worker recovery end to end (real processes)
# ----------------------------------------------------------------------
class TestWedgedWorkerRecovery:
    def test_poisoned_handle_is_killed_and_respawned(self, osm_points, tmp_path):
        base = osm_points[:300]
        router = build_cluster(
            base, tmp_path, n_shards=1, elsi=_ELSI, serve=_SERVE
        )
        with router:
            handle = router.handles[0]
            old_pid = handle._proc.pid
            # Exactly the state a request timeout leaves behind: worker
            # process still running, handle refusing traffic.
            handle._poisoned = True
            assert handle._proc.is_alive() and not handle.alive()
            # Idempotent queries recover transparently: the wedged worker
            # is killed and the replacement comes back from disk.
            assert router.point_queries(base[:4]).all()
            assert handle.alive()
            assert handle._proc.pid != old_pid
            export = router.registry.export()
            assert series_sum(export, "router.respawns") == 1


# ----------------------------------------------------------------------
# Kill one shard mid-stream: zero acknowledged-update loss (satellite)
# ----------------------------------------------------------------------
class TestKillOneShardMidStream:
    def test_router_recovers_with_zero_acked_loss(self, osm_points, tmp_path):
        base = osm_points[:400]
        router = build_cluster(
            base, tmp_path, n_shards=2, elsi=_ELSI, serve=_SERVE
        )
        schedule = make_schedule(base, 40, seed=0)
        live = [np.asarray(p, dtype=np.float64) for p in base]
        owners_of = lambda p: int(  # noqa: E731
            router.shard_map.shard_of_points(np.asarray(p)[None, :])[0]
        )
        with router:
            acked = 0
            for i, (op, point) in enumerate(schedule):
                if i == len(schedule) // 2:
                    # Kill shard 0's worker process mid-stream (SIGKILL,
                    # no flushes) — acknowledged ops must survive.
                    router.handles[0]._proc.kill()
                    router.handles[0]._proc.join(timeout=10.0)
                    assert not router.handles[0].alive()
                    # The surviving shard keeps serving while 0 is down:
                    shard1_points = [
                        p for p in live if owners_of(p) == 1
                    ][:8]
                    assert router.point_queries(
                        np.asarray(shard1_points)
                    ).all()
                    assert router.health_summary()["shards"][0][
                        "health"
                    ] == "down"
                if op == "insert":
                    router.insert(point)
                else:
                    router.delete(point)
                apply_op(live, op, point)
                acked += 1
            assert acked == len(schedule)
            # Shard 0 was respawned from snapshots + WAL along the way.
            export = router.registry.export()
            assert series_sum(export, "router.respawns") >= 1
            # Zero acknowledged loss: the fleet's state is exactly
            # base + every acknowledged op.
            everything = router.window_queries([Rect.unit()])[0]
            np.testing.assert_array_equal(canon(everything), canon(live))
            # And per-point membership agrees for all acked inserts.
            inserted = [p for op, p in schedule if op == "insert"]
            survivors = [
                p for p in inserted if any(np.array_equal(p, q) for q in live)
            ]
            assert router.point_queries(np.asarray(survivors)).all()

        # Multi-directory recovery: reopen the whole cluster from disk and
        # the acknowledged state is still there.
        reopened = open_cluster(tmp_path)
        with reopened:
            everything = reopened.window_queries([Rect.unit()])[0]
            np.testing.assert_array_equal(canon(everything), canon(live))


# ----------------------------------------------------------------------
# Index kinds: every persistable learned index serves behind the router
# ----------------------------------------------------------------------
class TestIndexKinds:
    def test_rsmi_cluster_matches_brute_force_and_keeps_inserts(
        self, osm_points, tmp_path
    ):
        base = osm_points[:600]
        rng = np.random.default_rng(21)
        inserts = rng.random((12, 2))
        probes = np.vstack([base[:150], rng.random((50, 2)) + 2.0, inserts])
        with build_cluster(
            base, tmp_path, n_shards=2, index="RSMI", elsi=_ELSI, serve=_SERVE
        ) as router:
            np.testing.assert_array_equal(
                router.point_queries(probes), point_truth(base, probes)
            )
            for p in inserts:
                router.insert(p)
            live = np.vstack([base, inserts])
            np.testing.assert_array_equal(
                router.point_queries(probes), point_truth(live, probes)
            )
        with open_cluster(tmp_path) as reopened:
            np.testing.assert_array_equal(
                reopened.point_queries(probes), point_truth(live, probes)
            )

    def test_unknown_index_refused_before_anything_is_written(
        self, osm_points, tmp_path
    ):
        target = tmp_path / "cluster"
        with pytest.raises(ValueError, match="Flood, LISA, ML, RSMI, ZM"):
            build_cluster(osm_points[:100], target, n_shards=2, index="RTree")
        assert not target.exists()

    def test_a_cluster_without_a_wal_is_refused(self, osm_points, tmp_path):
        target = tmp_path / "cluster"
        with pytest.raises(ValueError, match="wal can only be True"):
            build_cluster(osm_points[:100], target, n_shards=2, wal=False)
        assert not target.exists()
