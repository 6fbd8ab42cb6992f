"""Tests for the serving subsystem (micro-batching, generations, snapshots).

The centrepiece is the swap-under-load test: queries keep flowing while a
background rebuild swaps the generation pointer, and every reply must (a)
arrive without ever blocking on the rebuild and (b) name exactly one
generation — no batch may mix pre- and post-swap index state.
"""

import itertools
import threading
import time

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.update_processor import UpdateProcessor
from repro.data import load_dataset
from repro.faults import get_fault_registry
from repro.indices import ZMIndex
from repro.obs.metrics import histogram_stat, series_sum
from repro.serve import (
    DEGRADED,
    HEALTHY,
    KINDS,
    KNN,
    POINT,
    READ_ONLY,
    WINDOW,
    IndexServer,
    RebuildFailed,
    Request,
    RequestTimeout,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
    ServerReadOnly,
    SnapshotManager,
)
from repro.serve.requests import release
from repro.serve.server import MAX_BATCH_SIZE, MAX_QUEUE_DEPTH, MAX_RETRIES
from repro.spatial.rect import Rect
from tests.brute import assert_knn, assert_windows, point_truth


@pytest.fixture(scope="module")
def built_index(osm_points):
    config = ELSIConfig(train_epochs=80)
    return ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(osm_points)


def _server(index, **kwargs) -> IndexServer:
    return IndexServer(index, elsi_config=ELSIConfig(train_epochs=80), **kwargs)


def _queue_then_start(server: IndexServer, requests: list) -> list:
    """Queue ``requests`` on a server that has not started, then start it:
    the dispatcher's first batch holds all of them (up to
    ``MAX_BATCH_SIZE``).  Returns them: each request is its own reply."""
    server._pending.extend(requests)
    server.start()
    return requests


class TestBasicServing:
    def test_point_queries_match_direct(self, built_index, osm_points):
        rng = np.random.default_rng(0)
        misses = rng.random((30, 2)) + 1.5
        with _server(built_index) as server:
            hit_replies = [server.submit_point(p) for p in osm_points[:60]]
            miss_replies = [server.submit_point(p) for p in misses]
            assert all(r.wait(20) for r in hit_replies)
            assert not any(r.wait(20) for r in miss_replies)

    def test_window_and_knn_match_direct(self, built_index, osm_points):
        window = Rect.centered(np.array([0.5, 0.5]), 0.15)
        with _server(built_index) as server:
            got = server.window_query(window)
            assert len(got) == len(built_index.window_query(window))
            nn = server.knn_query(osm_points[0], 5)
            np.testing.assert_array_equal(nn, built_index.knn_query(osm_points[0], 5))

    def test_reply_records_generation_and_latency(self, built_index, osm_points):
        with _server(built_index) as server:
            reply = server.submit_point(osm_points[0])
            reply.wait(20)
            assert reply.generation == server.generation
            assert (reply.completed_at - reply.submitted_at) >= 0.0

    def test_submit_before_start_rejected(self, built_index, osm_points):
        server = _server(built_index)
        with pytest.raises(RuntimeError):
            server.submit_point(osm_points[0])

    def test_a_reused_buffer_does_not_change_a_queued_request(
        self, built_index, osm_points
    ):
        """Every ``submit_*`` copies its payload: a client that overwrites
        its array while the request is still queued gets the answer for
        what it submitted."""
        window = Rect.centered(osm_points[5], 0.05)
        with _server(built_index) as server:
            # Stall the dispatcher in a first batch so the rest stay queued.
            get_fault_registry().arm("serve.dispatch", kind="delay", delay_seconds=0.2)
            blocker = server.submit_point(osm_points[0])
            time.sleep(0.05)
            p = osm_points[1].copy()
            r = server.submit_point(p)
            p[:] = 5.0
            q = osm_points[2].copy()
            nn = server.submit_knn(q, 3)
            q[:] = 5.0
            batch = osm_points[:4].copy()
            hits = server.submit_point_batch(batch)
            batch[:] = 5.0
            lo, hi = window.lo_array[None].copy(), window.hi_array[None].copy()
            rows = server.submit_window_batch(lo, hi)
            lo[:], hi[:] = 5.0, 5.0
            kq = osm_points[3:5].copy()
            nns = server.submit_knn_batch(kq, 2)
            kq[:] = 5.0
            assert blocker.wait(20) is True
            assert r.wait(20) is True
            assert_knn("ZM", osm_points, osm_points[2:3], 3, [nn.wait(20)])
            assert hits.wait(20).tolist() == [True] * 4
            got, counts = rows.wait(20)
            assert_windows("ZM", osm_points, [window], [got])
            assert counts.tolist() == [len(got)]
            assert_knn("ZM", osm_points, osm_points[3:5], 2, nns.wait(20))

    def test_stats_surface(self, built_index, osm_points):
        with _server(built_index) as server:
            for p in osm_points[:40]:
                server.point_query(p)
            snap = server.stats_snapshot()
        assert series_sum(snap, "serve.requests_submitted", kind="point") == 40
        assert series_sum(snap, "serve.requests_completed") == 40
        assert series_sum(snap, "serve.request_errors") == 0
        assert series_sum(snap, "serve.batches") == server.stats.batches >= 1
        assert series_sum(snap, "serve.batched_requests") == 40
        latency = "serve.request_latency_seconds"
        assert histogram_stat(snap, latency, "count") == 40
        assert histogram_stat(snap, latency, "p99") >= histogram_stat(snap, latency, "p50")

    def test_window_micro_batch_matches_direct(self, built_index, osm_points):
        rng = np.random.default_rng(3)
        windows = [
            Rect.centered(osm_points[rng.integers(len(osm_points))], 0.1)
            for _ in range(8)
        ]
        requests = [
            Request(WINDOW, win_lo=w.lo_array[None], win_hi=w.hi_array[None], scalar=True)
            for w in windows
        ]
        server = _server(built_index)
        replies = _queue_then_start(server, requests)
        with server:
            for w, reply in zip(windows, replies):
                np.testing.assert_array_equal(
                    reply.wait(20), built_index.window_query(w)
                )
            assert len({reply.generation for reply in replies}) == 1
            assert server.stats.batches == 1

    def test_stats_snapshot_export_format(self, built_index, osm_points):
        with _server(built_index) as server:
            for p in osm_points[:10]:
                server.point_query(p)
            dump = server.stats_snapshot()
        # Exporter format: {name: [{labels, kind, value}, ...]}.
        assert dump["serve.requests_submitted"] == [
            {"labels": {"kind": "point"}, "kind": "counter", "value": 10.0}
        ]
        assert dump["serve.batches"][0]["kind"] == "counter"
        assert dump["serve.request_latency_seconds"][0]["kind"] == "histogram"
        assert histogram_stat(dump, "serve.request_latency_seconds", "count") == 10
        # Serving-health gauges are exported alongside the counters.
        assert series_sum(dump, "serve.generation_age_seconds") >= 0.0
        assert "serve.rebuild_journal_depth" in dump

    def test_stats_already_hold_a_request_when_its_answer_is_out(
        self, built_index, osm_points
    ):
        """Count, then release: a client that has its answer finds it in
        the completed counter and the latency histogram."""
        with _server(built_index) as server:
            for i in range(1, 301):
                server.point_query(osm_points[i % len(osm_points)])
                snap = server.stats.registry.export()
                assert series_sum(snap, "serve.requests_completed") == i
                assert histogram_stat(snap, "serve.request_latency_seconds", "count") == i
                assert histogram_stat(snap, "serve.queue_wait_seconds", "count") == i

    def test_malformed_request_is_refused_at_the_door(self, built_index, osm_points):
        """One malformed request must not poison its micro-batch: it raises
        at submit, is neither queued nor counted, and its neighbours in the
        flight are answered."""
        with _server(built_index) as server:
            replies = [server.submit_point(p) for p in osm_points[:5]]
            with pytest.raises(ValueError):
                server.submit_point(np.array([0.1, 0.2, 0.3]))
            replies += [server.submit_point(p) for p in osm_points[5:10]]
            assert [r.wait(20) for r in replies] == [True] * 10
            for bad in (
                lambda: server.submit_point(np.zeros((1, 2))),
                lambda: server.submit_point(0.5),
                lambda: server.submit_knn(np.zeros(3), 2),
                lambda: server.submit_knn(np.zeros(2), 0),
                lambda: server.submit_point_batch(np.zeros(2)),
                lambda: server.submit_point_batch(np.zeros((4, 3))),
                lambda: server.submit_knn_batch(np.zeros((4, 3)), 2),
                lambda: server.submit_window(Rect((0.1,) * 3, (0.2,) * 3)),
                lambda: server.submit_window_batch(np.zeros((2, 2)), np.ones((2, 3))),
                lambda: server.submit_window_batch(np.zeros((2, 2)), np.ones((3, 2))),
                lambda: server.submit_window_batch(np.zeros(2), np.ones(2)),
            ):
                with pytest.raises(ValueError):
                    bad()
            rows, counts = server.submit_window_batch(
                np.empty((0, 2)), np.empty((0, 2))
            ).wait(20)
            assert rows.shape == (0, 2) and counts.shape == (0,)
            snap = server.stats.registry.export()
        assert series_sum(snap, "serve.requests_submitted") == 11
        assert series_sum(snap, "serve.requests_submitted", kind="point") == 10
        assert series_sum(snap, "serve.requests_submitted", kind="window") == 1
        assert series_sum(snap, "serve.requests_completed") == 11
        assert series_sum(snap, "serve.request_errors") == 0

    def test_a_non_integer_k_is_refused_and_spares_its_batch(
        self, built_index, osm_points
    ):
        """A kNN request with a non-integer ``k`` raises at submit, so it
        never reaches a micro-batch: a window and a point request queued
        as one batch with it get brute-force answers."""
        probe, query = osm_points[5], osm_points[9]
        window = Rect.centered(osm_points[7], 0.1)
        flight = [
            Request(POINT, points=probe[None], scalar=True),
            Request(WINDOW, win_lo=window.lo_array[None],
                    win_hi=window.hi_array[None], scalar=True),
        ]
        server = _server(built_index)
        for bad in (2.5, np.float64(3.0), "3"):
            with pytest.raises(ValueError, match="integer"):
                flight.append(Request(KNN, points=query[None], k=bad, scalar=True))
            with pytest.raises(ValueError, match="integer"):
                server.submit_knn(query, bad)
        hit, rows = _queue_then_start(server, flight)
        with server:
            assert hit.wait(20) is True
            assert_windows("ZM", osm_points, [window], [rows.wait(20)])
            assert server.stats.batches == 1
            for bad in (2.5, np.float64(3.0)):
                with pytest.raises(ValueError, match="integer"):
                    server.submit_knn(query, bad)
                with pytest.raises(ValueError, match="integer"):
                    server.submit_knn_batch(osm_points[:3], bad)
            got = server.submit_knn(query, np.int64(3)).wait(20)
            assert_knn("ZM", osm_points, query[None], 3, [got])
            snap = server.stats.registry.export()
        assert series_sum(snap, "serve.requests_submitted", kind="knn") == 1
        assert series_sum(snap, "serve.request_errors") == 0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(max_wait_seconds=-1.0)
        with pytest.raises(ValueError):
            ServeConfig(max_wait_seconds=0.002)  # single-valued: 0 only

    def test_unbuilt_index_rejected(self):
        with pytest.raises(ValueError):
            IndexServer(ZMIndex())


class TestRequestShape:
    """Every request carries a batch, under three kinds."""

    def test_one_batch_of_every_kind_equals_the_processor(self, osm_points):
        """Requests of all three kinds, scalar and batch, several ``k`` and
        empty batches, queued before ``start()``: one dispatcher batch
        answers them all from one generation, every answer byte-equal to
        the processor's own call for that request alone and equal to brute
        force — with a side list and deletion marks to merge."""
        config = ELSIConfig(train_epochs=60)
        index = ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(
            osm_points[:1500]
        )
        server = _server(index, config=ServeConfig(auto_rebuild=False))
        rng = np.random.default_rng(31)
        for p in rng.random((40, 2)):
            server.insert(p)
        for p in osm_points[:1500:50]:
            assert server.delete(p)
        processor = server._gen.processor
        current = processor.current_points()
        probes = np.vstack([current[:40], osm_points[:1500:50], rng.random((20, 2)) + 2])
        centres = current[rng.integers(len(current), size=12)]
        half = rng.uniform(0.01, 0.1, size=(12, 1))
        lo, hi = centres - half, centres + half
        queries = rng.random((9, 2))
        empty = np.empty((0, 2))
        requests = [
            Request(POINT, points=probes[:1], scalar=True),
            Request(POINT, points=probes[1:60]),
            Request(POINT, points=empty),
            Request(POINT, points=probes[60:61], scalar=True),
            Request(POINT, points=probes[61:]),
            Request(WINDOW, win_lo=lo[:1], win_hi=hi[:1], scalar=True),
            Request(WINDOW, win_lo=lo[1:7], win_hi=hi[1:7]),
            Request(WINDOW, win_lo=empty, win_hi=empty),
            Request(WINDOW, win_lo=lo[7:8], win_hi=hi[7:8], scalar=True),
            Request(WINDOW, win_lo=lo[8:], win_hi=hi[8:]),
            Request(KNN, points=queries[:1], k=1, scalar=True),
            Request(KNN, points=queries[1:4], k=7),
            Request(KNN, points=empty, k=7),
            Request(KNN, points=queries[4:5], k=7, scalar=True),
            Request(KNN, points=queries[5:], k=1),
            Request(KNN, points=queries[5:6], k=30, scalar=True),
        ]
        replies = _queue_then_start(server, requests)
        with server:
            answers = [reply.wait(20) for reply in replies]
        assert server.stats.batches == 1
        assert len({reply.generation for reply in replies}) == 1
        for r, got in zip(requests, answers):
            if r.kind == POINT:
                want = processor.point_queries(r.points)
                if r.scalar:
                    assert got is bool(want[0])
                else:
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                np.testing.assert_array_equal(
                    np.atleast_1d(got), point_truth(current, r.points)
                )
            elif r.kind == WINDOW:
                rows, counts = processor.window_rows(r.win_lo, r.win_hi)
                if r.scalar:
                    got, got_counts = got, np.array([len(got)])
                else:
                    got, got_counts = got
                assert got.shape == rows.shape and got.tobytes() == rows.tobytes()
                assert got_counts.tolist() == counts.tolist()
                windows = [Rect.from_arrays(a, b) for a, b in zip(r.win_lo, r.win_hi)]
                cuts = [0, *np.cumsum(got_counts).tolist()]
                parts = [got[a:b] for a, b in zip(cuts, cuts[1:])]
                assert_windows("ZM", current, windows, parts)
            else:
                want = processor.knn_queries(r.points, r.k)
                got = [got] if r.scalar else got
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert_knn("ZM", current, r.points, r.k, got)

    def test_kinds_and_config_fields_are_pinned(self):
        """Three request kinds; ``ServeConfig`` has two settable fields
        plus ``max_wait_seconds``, which accepts only 0.  The batch cap,
        the queue bound and the retry budget and backoff are module
        constants, and a queued request is never shed by age.  The
        background rebuild check runs every ``ELSIConfig.f_u`` updates:
        there is no second cadence field."""
        import dataclasses

        assert KINDS == ("point", "window", "knn")
        assert {f.name for f in dataclasses.fields(ServeConfig)} == {
            "max_wait_seconds", "auto_rebuild", "fsync_policy",
        }
        assert (MAX_BATCH_SIZE, MAX_QUEUE_DEPTH, MAX_RETRIES) == (256, 10_000, 3)


#: Updates a 2-D server must refuse: another dimensionality, NaN, +-inf.
BAD_UPDATES = [
    np.array([0.1, 0.2, 0.3]),
    np.array([np.nan, 0.5]),
    np.array([0.5, np.inf]),
    np.array([-np.inf, 0.5]),
]


def _check_reads(server: IndexServer) -> None:
    """Windows and kNN still answer, and answer like brute force over the
    server's logical data."""
    current = server._gen.processor.current_points()
    window = Rect.centered(np.array([0.5, 0.5]), 0.2)
    assert_windows("ZM", current, [window], [server.window_query(window)])
    queries = np.array([[0.3, 0.7], [0.5, 0.5]])
    assert_knn("ZM", current, queries, 5, [server.knn_query(q, 5) for q in queries])
    assert server.point_query(np.array([0.3, 0.7]))


def test_malformed_updates_are_refused_before_the_wal(small_server_parts, tmp_path):
    """A 3-D, NaN or infinite insert or delete raises ValueError before it
    reaches the WAL: the log's depth and ``n_points`` stay put, windows and
    kNN still answer, and so does a server recovered from the directory."""
    index, config, factory = small_server_parts
    common = dict(
        config=ServeConfig(auto_rebuild=False),
        elsi_config=config,
        index_factory=factory,
        wal=True,
    )
    server = IndexServer(index, snapshots=str(tmp_path), **common)
    server.insert(np.array([0.3, 0.7]))
    depth, n = server.wal.depth, server.n_points
    for bad in BAD_UPDATES:
        for update in (server.insert, server.delete):
            with pytest.raises(ValueError):
                update(bad)
    assert (server.wal.depth, server.n_points) == (depth, n)
    with server:
        _check_reads(server)
    recovered = IndexServer.from_snapshot(str(tmp_path), **common)
    assert recovered.n_points == n
    with recovered:
        _check_reads(recovered)


class TestUpdates:
    def test_the_rebuild_check_runs_every_f_u_updates(self, osm_points, monkeypatch):
        """The server is the one place the paper's ``f_u`` cadence runs:
        nobody asks ``to_rebuild`` before ``f_u`` updates; after them the
        background worker asks, and swaps in a rebuild when it says so."""
        asked: list = []
        ask = UpdateProcessor.to_rebuild
        monkeypatch.setattr(
            UpdateProcessor, "to_rebuild", lambda self: asked.append(1) or ask(self)
        )
        config = ELSIConfig(train_epochs=60, f_u=200)
        index = ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(osm_points)
        skew = load_dataset("Skewed", 400, seed=6)
        with IndexServer(index, elsi_config=config) as server:
            for p in skew[:199]:
                server.insert(p)
            time.sleep(0.3)  # the worker polls every 0.1 s
            assert asked == [] and server.generation == 0
            for p in skew[199:]:
                server.insert(p)
            deadline = time.perf_counter() + 30.0
            while server.generation == 0 and time.perf_counter() < deadline:
                time.sleep(0.01)
        assert asked
        assert server.generation >= 1
        assert server.n_points == len(osm_points) + len(skew)

    def test_insert_visible_to_queries(self, built_index):
        fresh = np.array([0.111, 0.222])
        with _server(built_index, config=ServeConfig(auto_rebuild=False)) as server:
            assert not server.point_query(fresh)
            server.insert(fresh)
            assert server.point_query(fresh)
            assert server.delete(fresh)
            assert not server.point_query(fresh)

    def test_manual_rebuild_swaps_generation(self, osm_points):
        config = ELSIConfig(train_epochs=60)
        index = ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(
            osm_points[:800]
        )
        server = _server(index, config=ServeConfig(auto_rebuild=False))
        with server:
            rng = np.random.default_rng(5)
            extra = rng.random((50, 2)) * 0.2
            for p in extra:
                server.insert(p)
            g0 = server.generation
            n0 = server.n_points
            server.rebuild_now()
            assert server.generation == g0 + 1
            assert server.n_points == n0
            # Every inserted point survives the rebuild.
            for p in extra:
                assert server.point_query(p)
        snap = server.stats.registry.export()
        assert series_sum(snap, "serve.rebuilds") == 1
        assert series_sum(snap, "serve.generation_swaps") == 1

    def test_rebuild_keeps_constructor_parameters(self, osm_points):
        """The server's default rebuild target is the served index's
        ``unbuilt_copy()``, not ``type(index)(builder=...)``."""
        builder = ELSIModelBuilder(ELSIConfig(train_epochs=60), method="SP")
        index = ZMIndex(builder=builder, block_size=50, bits=12, branching=2)
        index.build(osm_points[:800])
        with _server(index, config=ServeConfig(auto_rebuild=False)) as server:
            server.insert(np.array([0.5, 0.5]))
            server.rebuild_now()
            rebuilt = server._gen.processor.index
            assert rebuilt is not index and rebuilt.builder is builder
            assert rebuilt._params() == {"block_size": 50, "bits": 12, "branching": 2}
            assert server.point_query(np.array([0.5, 0.5]))


class TestSwapUnderLoad:
    """Queries during a background rebuild never block on it and never see
    a half-finished generation."""

    def test_queries_flow_and_stay_consistent(self, osm_points):
        config = ELSIConfig(train_epochs=80)
        index = ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(
            osm_points[:1500]
        )
        server = _server(index, config=ServeConfig(auto_rebuild=False))
        rng = np.random.default_rng(9)
        inserts = rng.random((120, 2)) * 0.1

        with server:
            for p in inserts:
                server.insert(p)
            g0 = server.generation

            replies = []
            stop = threading.Event()

            def query_load() -> None:
                i = 0
                while not stop.is_set():
                    replies.append(server.submit_point(osm_points[i % 1500]))
                    # Also probe the inserted points: both generations must
                    # answer True (side list before the swap, base after).
                    replies.append(server.submit_point(inserts[i % len(inserts)]))
                    i += 1
                    time.sleep(0)

            loader = threading.Thread(target=query_load)
            loader.start()
            time.sleep(0.02)
            rebuild_seconds = server.rebuild_now()
            time.sleep(0.02)
            stop.set()
            loader.join()

            assert server.generation == g0 + 1
            generations = set()
            max_latency = 0.0
            for reply in replies:
                assert reply.wait(30) is True
                generations.add(reply.generation)
                max_latency = max(max_latency, (reply.completed_at - reply.submitted_at))
            # The load straddled the swap: early replies came from g0, late
            # ones from g0+1, and nothing else.
            assert generations <= {g0, g0 + 1}
            assert g0 + 1 in generations
            # Queries never waited for the rebuild: even on a slow CI
            # machine, a reply taking as long as the rebuild itself means
            # serving was blocked.
            assert len(replies) > 0
            assert max_latency < max(rebuild_seconds, 0.05) * 10

    def test_batches_never_mix_generations(self, osm_points):
        """All replies of one micro-batch name the same generation."""
        config = ELSIConfig(train_epochs=60)
        index = ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(
            osm_points[:1000]
        )
        server = IndexServer(
            index,
            ServeConfig(auto_rebuild=False),
            elsi_config=ELSIConfig(train_epochs=60),
        )
        with server:
            rng = np.random.default_rng(2)
            for p in rng.random((40, 2)) * 0.1:
                server.insert(p)

            swapping = threading.Thread(target=server.rebuild_now)
            batches: list[list] = []
            swapping.start()
            while swapping.is_alive():
                window = [server.submit_point(p) for p in osm_points[:32]]
                for reply in window:
                    reply.wait(30)
                batches.append(window)
            swapping.join()
            for window in batches:
                gens = {reply.generation for reply in window}
                # Replies submitted together may span dispatcher batches,
                # but each dispatcher batch resolves from one generation —
                # so a 32-submit window sees at most the two generations
                # alive during the swap, never a third or a mix within one
                # service call.
                assert len(gens) <= 2

    def test_updates_during_rebuild_not_lost(self, osm_points):
        """Inserts that arrive mid-rebuild are journalled and replayed into
        the successor generation."""
        config = ELSIConfig(train_epochs=60)
        index = ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(
            osm_points[:1000]
        )
        server = _server(index, config=ServeConfig(auto_rebuild=False))
        with server:
            rng = np.random.default_rng(4)
            for p in rng.random((30, 2)) * 0.1:
                server.insert(p)
            racing = rng.random((25, 2)) * 0.1 + 0.85

            inserted = []

            def race_inserts() -> None:
                for p in racing:
                    server.insert(p)
                    inserted.append(p)
                    time.sleep(0.001)

            racer = threading.Thread(target=race_inserts)
            racer.start()
            server.rebuild_now()
            racer.join()

            for p in inserted:
                assert server.point_query(p), "insert lost across generation swap"
            assert server.n_points == 1000 + 30 + 25


class TestSnapshots:
    def test_save_load_round_trip(self, built_index, osm_points, tmp_path):
        manager = SnapshotManager(tmp_path)
        manager.save(built_index, 3)
        assert manager.generations() == [3]
        loaded, gen = manager.load()
        assert gen == 3
        np.testing.assert_array_equal(
            loaded.point_queries(osm_points[:50]),
            built_index.point_queries(osm_points[:50]),
        )

    def test_remove_through(self, built_index, tmp_path):
        """Snapshots before the named generation go; it and later stay."""
        manager = SnapshotManager(tmp_path)
        for gen in (1, 2, 5):
            manager.save(built_index, gen)
        removed = manager.remove_through(2)
        assert [p.name for p in removed] == ["gen-000001.npz"]
        assert manager.generations() == [2, 5]
        assert manager.remove_through(2) == []

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SnapshotManager(tmp_path).load()

    def test_server_snapshots_on_rebuild(self, osm_points, tmp_path):
        config = ELSIConfig(train_epochs=60)
        index = ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(
            osm_points[:800]
        )
        server = _server(
            index, config=ServeConfig(auto_rebuild=False), snapshots=str(tmp_path)
        )
        with server:
            server.insert(np.array([0.4, 0.6]))
            server.rebuild_now()
            gen = server.generation
        restored = IndexServer.from_snapshot(str(tmp_path))
        assert restored.generation == gen
        with restored:
            assert restored.point_query(np.array([0.4, 0.6]))


class TestLifecycle:
    def test_submit_after_close_raises_server_closed(self, built_index, osm_points):
        server = _server(built_index)
        with server:
            server.point_query(osm_points[0])
        with pytest.raises(ServerClosed):
            server.submit_point(osm_points[0])
        with pytest.raises(ServerClosed):
            server.insert(np.array([0.5, 0.5]))
        with pytest.raises(ServerClosed):
            server.delete(np.array([0.5, 0.5]))

    def test_start_after_close_raises(self, built_index):
        server = _server(built_index)
        server.start()
        server.close()
        with pytest.raises(ServerClosed):
            server.start()

    def test_close_is_idempotent(self, built_index):
        server = _server(built_index).start()
        server.close()
        server.close()

    def test_submit_close_race_never_strands_a_reply(self, built_index, osm_points):
        """Submissions racing close() must either raise ServerClosed or
        get a completed reply — never a Reply left to hang forever."""
        server = _server(built_index).start()
        replies: list = []
        lock = threading.Lock()

        def spam():
            for point in osm_points[:200]:
                try:
                    reply = server.submit_point(point)
                except ServerClosed:
                    return
                with lock:
                    replies.append(reply)

        threads = [threading.Thread(target=spam) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.01)
        server.close()
        for t in threads:
            t.join()
        assert replies
        for reply in replies:
            try:
                # A TimeoutError here means the request was enqueued after
                # shutdown and stranded — the race this test guards.
                reply.wait(timeout=10.0)
            except ServerClosed:
                pass


def _pending_request() -> Request:
    """A point request nobody serves: its completion is the test's."""
    return Request(POINT, np.zeros((1, 2)), 0, True)


def _wait_from_threads(request: Request, n: int = 8, complete=None) -> list:
    """``request.wait(10)`` from ``n`` threads started together (and, when
    given, ``complete(request)`` from one more thread at the same moment):
    each waiter's answer, or the exception it raised."""
    got: list = []
    lock = threading.Lock()
    start = threading.Barrier(n if complete is None else n + 1)

    def waiter():
        start.wait()
        try:
            out = request.wait(10)
        except BaseException as exc:  # noqa: BLE001 - the test reads it
            out = exc
        with lock:
            got.append(out)

    def completer():
        start.wait()
        complete(request)

    threads = [threading.Thread(target=waiter) for _ in range(n)]
    if complete is not None:
        threads.append(threading.Thread(target=completer))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    return got


class TestReply:
    """A request is its own reply: one object from submit to answer."""

    def test_wait_times_out_while_pending_then_returns_repeatedly(self):
        reply = _pending_request()
        assert not reply.done()
        for timeout in (0.0, 0.01, -1.0):
            with pytest.raises(TimeoutError):
                reply.wait(timeout)
        assert not reply.done()
        reply.resolve("answer", 3)
        assert reply.done()
        for _ in range(3):
            assert reply.wait(0) == "answer"
            assert reply.wait() == "answer"
        assert reply.done()
        assert reply.generation == 3
        assert (reply.completed_at - reply.submitted_at) >= 0.0

    def test_every_waiter_returns(self):
        reply = _pending_request()
        got: list = []
        waiters = [
            threading.Thread(target=lambda: got.append(reply.wait(10)))
            for _ in range(2)
        ]
        for t in waiters:
            t.start()
        time.sleep(0.02)
        assert got == []
        reply.resolve(42, 0)
        for t in waiters:
            t.join(timeout=10)
            assert not t.is_alive()
        assert got == [42, 42]

    def test_reject_reraises_and_completion_is_single(self):
        reply = _pending_request()
        reply.reject(ServerClosed("gone"))
        assert reply.done()
        for _ in range(2):
            with pytest.raises(ServerClosed):
                reply.wait(1)
        with pytest.raises(RuntimeError):
            reply.resolve(1, 0)  # single-assignment: already completed

    def test_completed_replies_answer_eight_waiters_at_once(self):
        """A completed reply returns at once, whoever asks: its value from
        a resolved one and its error from a rejected one, to eight threads
        waiting together, and it stays done throughout."""
        resolved = _pending_request()
        resolved.resolve("answer", 7)
        assert _wait_from_threads(resolved) == ["answer"] * 8
        assert resolved.done() and resolved.generation == 7
        rejected = _pending_request()
        error = RequestTimeout("shed")
        rejected.reject(error)
        assert _wait_from_threads(rejected) == [error] * 8
        assert rejected.done()

    def test_waiters_racing_completion_all_return(self, fast_switching):
        """Eight waiters start as the request completes, so each finds it
        pending (the lock) or complete (no lock): every one returns the
        answer or raises the error, and none is left blocked."""
        error = ServerClosed("gone")
        for i in range(60):
            reply = _pending_request()
            if i % 2:
                got = _wait_from_threads(reply, complete=lambda r: r.resolve(i, 0))
                assert got == [i] * 8
            else:
                got = _wait_from_threads(
                    reply,
                    complete=lambda r: release([r], time.perf_counter(), 0, error=error),
                )
                assert got == [error] * 8
            assert reply.done()

    def test_a_second_completion_still_raises(self):
        """Whichever way a request was completed — alone or with its
        micro-batch group — completing it again raises."""
        for complete in (
            lambda r: r.resolve(1, 0),
            lambda r: r.reject(ServerClosed("gone")),
            lambda r: release([r], time.perf_counter(), 0, [1]),
            lambda r: release([r], time.perf_counter(), 0, error=ServerClosed("gone")),
        ):
            for again in (
                lambda r: r.resolve(2, 1),
                lambda r: r.reject(ServerClosed("again")),
                lambda r: release([r], time.perf_counter(), 1, [2]),
            ):
                reply = _pending_request()
                complete(reply)
                with pytest.raises(RuntimeError):
                    again(reply)
                assert reply.done()

    def test_a_second_completion_keeps_the_first_answer(self):
        """A second ``resolve`` / ``reject`` raises before it writes: the
        first answer (or error), its generation and its stamp survive."""
        for again in (
            lambda r: r.resolve("second", 2),
            lambda r: r.reject(ServerClosed("again")),
        ):
            reply = _pending_request()
            reply.resolve("first", 1)
            stamp = reply.completed_at
            with pytest.raises(RuntimeError):
                again(reply)
            assert reply.wait(0) == "first"
            assert reply.generation == 1
            assert reply.error is None
            assert reply.completed_at == stamp
        error = ServerClosed("first")
        reply = _pending_request()
        reply.reject(error)
        with pytest.raises(RuntimeError):
            reply.resolve("second", 2)
        assert reply.value is None and reply.generation is None
        with pytest.raises(ServerClosed) as raised:
            reply.wait(0)
        assert raised.value is error

    def test_a_timed_out_wait_raises_request_timeout(self):
        """A wait that runs out of time raises the typed ``RequestTimeout``
        (a ``TimeoutError``) and leaves the request pending."""
        reply = _pending_request()
        for timeout in (0.0, 0.01):
            with pytest.raises(RequestTimeout):
                reply.wait(timeout)
        assert issubclass(RequestTimeout, TimeoutError)
        assert not reply.done()
        reply.resolve("late", 0)
        assert reply.wait(0) == "late"

    def test_done_holds_before_and_after_completion(self):
        """``done()`` reads False while pending, including after a waiter
        timed out, and True once completed, before and after waits."""
        reply = _pending_request()
        assert not reply.done()
        with pytest.raises(TimeoutError):
            reply.wait(0.01)
        assert not reply.done()
        release([reply], time.perf_counter(), 4, ["answer"])
        assert reply.done()
        assert reply.wait(0) == "answer"
        assert reply.done()
        assert _wait_from_threads(reply) == ["answer"] * 8
        assert reply.done()

    def test_submit_returns_the_request(self, built_index, osm_points):
        """Every ``submit_*`` hands back the request it queued — one object
        carrying its kind, the answering generation and its latency."""
        window = Rect.centered(np.array([0.5, 0.5]), 0.1)
        p = osm_points[0]
        with _server(built_index) as server:
            for submit, kind in (
                (lambda: server.submit_point(p), POINT),
                (lambda: server.submit_window(window), WINDOW),
                (lambda: server.submit_knn(p, 3), KNN),
                (lambda: server.submit_point_batch(osm_points[:4]), POINT),
                (lambda: server.submit_window_batch(
                    window.lo_array[None], window.hi_array[None]), WINDOW),
                (lambda: server.submit_knn_batch(osm_points[:4], 3), KNN),
            ):
                request = submit()
                assert isinstance(request, Request) and request.kind == kind
                assert not hasattr(request, "reply")
                request.wait(20)
                assert request.done()
                assert request.generation == server.generation
                assert (request.completed_at - request.submitted_at) >= 0.0
            mine = Request(POINT, osm_points[:1])
            assert server.submit(mine) is mine
            assert mine.wait(20).tolist() == [True]


class TestAdmissionStress:
    def test_every_submission_is_shed_or_answered_right(
        self, built_index, osm_points, fast_switching
    ):
        """Four submitters against a dispatcher slowed to 10 ms a batch, so
        the queue reaches ``MAX_QUEUE_DEPTH``, closed once submissions
        shed: each submission raises ServerOverloaded / ServerClosed or is
        answered correctly (or rejected with ServerClosed), nothing stays
        pending, and the counters add up."""
        rng = np.random.default_rng(12)
        probes = np.vstack([osm_points[:300], rng.random((300, 2)) + 2.0])
        truth = point_truth(osm_points, probes)
        server = _server(built_index).start()
        get_fault_registry().arm(
            "serve.dispatch", kind="delay", delay_seconds=0.01, times=0
        )
        accepted: list = []  # (probe number, reply)
        overloaded = closed = 0
        lock = threading.Lock()

        def submitter(offset: int) -> None:
            nonlocal overloaded, closed
            for i in itertools.count(offset, 4):
                j = i % len(probes)
                try:
                    reply = server.submit_point(probes[j])
                except ServerOverloaded:
                    with lock:
                        overloaded += 1
                    continue
                except ServerClosed:
                    with lock:
                        closed += 1
                    return
                with lock:
                    accepted.append((j, reply))

        threads = [threading.Thread(target=submitter, args=(o,)) for o in range(4)]
        for t in threads:
            t.start()
        deadline = time.perf_counter() + 30.0
        while not overloaded and time.perf_counter() < deadline:
            time.sleep(0.005)
        server.close()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        get_fault_registry().reset()
        assert overloaded > 0
        with pytest.raises(ServerClosed):
            server.submit_point(probes[0])

        answered = rejected = 0
        for j, reply in accepted:
            try:
                assert reply.wait(1.0) == truth[j]
                answered += 1
            except ServerClosed:
                rejected += 1
        assert answered > 0
        snap = server.stats.registry.export()
        # An overloaded submission is shed before it counts as submitted.
        assert series_sum(snap, "serve.requests_submitted", kind="point") == len(accepted)
        assert series_sum(snap, "serve.requests_completed") == answered
        assert series_sum(snap, "serve.request_errors") == 0
        assert series_sum(snap, "serve.requests_shed", reason="closed") == rejected
        assert series_sum(snap, "serve.requests_shed", reason="overloaded") == overloaded
        assert len(accepted) == answered + rejected


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, built_index, osm_points):
        with _server(built_index) as server:
            # Stall the single dispatcher inside one batch so the queue
            # genuinely backs up behind it.
            get_fault_registry().arm(
                "serve.dispatch", kind="delay", delay_seconds=1.0
            )
            first = server.submit_point(osm_points[0])
            time.sleep(0.05)
            accepted = [first]
            with pytest.raises(ServerOverloaded):
                for i in range(1, MAX_QUEUE_DEPTH + 2):
                    accepted.append(server.submit_point(osm_points[i % 1000]))
            assert len(accepted) >= MAX_QUEUE_DEPTH
            # Everything that *was* admitted still completes.
            for reply in accepted:
                reply.wait(20)
        snap = server.stats.registry.export()
        assert series_sum(snap, "serve.requests_shed", reason="overloaded") >= 1
        assert series_sum(snap, "serve.requests_shed") == series_sum(
            snap, "serve.requests_shed", reason="overloaded"
        )

    def test_bad_admission_config_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(fsync_policy="sync-maybe")


@pytest.fixture()
def small_server_parts(osm_points):
    config = ELSIConfig(train_epochs=60)
    factory = lambda: ZMIndex(builder=ELSIModelBuilder(config, method="SP"))  # noqa: E731
    index = factory().build(osm_points[:800])
    return index, config, factory


class TestFaultTolerance:
    """Health walks healthy -> degraded -> read_only; retries converge."""

    def _server(self, parts, **kwargs):
        index, config, factory = parts
        kwargs.setdefault("config", ServeConfig(auto_rebuild=False))
        return IndexServer(
            index, elsi_config=config, index_factory=factory, **kwargs
        )

    def test_rebuild_retries_then_succeeds(self, small_server_parts):
        server = self._server(small_server_parts)
        server.insert(np.array([0.77, 0.77]))
        get_fault_registry().arm("rebuild.worker", kind="error", times=1)
        server.rebuild_now()
        assert server.generation == 1
        assert server.health == HEALTHY
        snap = server.stats.registry.export()
        assert series_sum(snap, "serve.retries") == 1
        assert series_sum(snap, "serve.retries", op="rebuild") == 1
        assert series_sum(snap, "serve.rebuild_failures") == 1
        assert server.last_rebuild_error is None
        server.close()

    def test_exhausted_rebuild_budget_goes_read_only(self, small_server_parts):
        server = self._server(small_server_parts)
        get_fault_registry().arm("rebuild.worker", kind="error", times=0)
        with pytest.raises(RebuildFailed):
            server.rebuild_now()
        assert server.health == READ_ONLY
        snap = server.stats.registry.export()
        assert series_sum(snap, "serve.rebuild_failures") == MAX_RETRIES + 1
        assert series_sum(snap, "serve.retries", op="rebuild") == MAX_RETRIES
        assert server.last_rebuild_error is not None
        with pytest.raises(ServerReadOnly):
            server.insert(np.array([0.5, 0.5]))
        # Queries still flow in read-only mode.
        with server:
            assert server.point_query(np.array([0.5, 0.5])) in (True, False)
            # A successful rebuild restores full health and write access.
            get_fault_registry().disarm()
            server.rebuild_now()
            assert server.health == HEALTHY
            server.insert(np.array([0.51, 0.51]))
            assert server.point_query(np.array([0.51, 0.51]))

    def test_snapshot_failure_degrades_but_serves(
        self, small_server_parts, tmp_path
    ):
        server = self._server(small_server_parts, snapshots=str(tmp_path))
        generations_before = server.snapshots.generations()
        get_fault_registry().arm("snapshot.write", kind="error", times=0)
        server.rebuild_now()
        assert server.generation == 1  # the rebuild itself landed
        assert server.health == DEGRADED
        snap = server.stats.registry.export()
        assert series_sum(snap, "serve.snapshot_failures") == MAX_RETRIES + 1
        assert server.snapshots.generations() == generations_before
        server.insert(np.array([0.6, 0.6]))  # degraded still accepts writes
        server.close()

    def test_rebuild_loop_surfaces_worker_errors(self, small_server_parts):
        """Background-worker failures land on last_rebuild_error and the
        health gauge instead of dying silently (the old behaviour)."""
        index, config, factory = small_server_parts
        server = IndexServer(
            index,
            elsi_config=ELSIConfig(train_epochs=60, f_u=1),
            index_factory=factory,
        )
        get_fault_registry().arm("rebuild.worker", kind="error", times=0)
        with server:
            rng = np.random.default_rng(11)
            # Heavy drift concentrated in one corner trips to_rebuild().
            try:
                for p in rng.random((600, 2)) * 0.05:
                    server.insert(p)
            except ServerReadOnly:
                pass
            # Every attempt fails: the worker retries MAX_RETRIES times
            # with backoff, then the server goes read-only.
            deadline = time.time() + 10.0
            while server.health != READ_ONLY and time.time() < deadline:
                time.sleep(0.01)
        assert server.last_rebuild_error is not None
        assert server.health == READ_ONLY

    def test_journal_replay_preserves_submission_order(self, small_server_parts):
        """Interleaved insert/delete submitted while a rebuild is in
        flight must apply in submission order after the swap."""
        server = self._server(small_server_parts)
        get_fault_registry().arm(
            "rebuild.worker", kind="delay", delay_seconds=0.4
        )
        kept = np.array([0.91, 0.915])
        dropped = np.array([0.92, 0.925])
        worker = threading.Thread(target=server.rebuild_now)
        worker.start()
        deadline = time.time() + 5.0
        while not server._rebuilding and time.time() < deadline:
            time.sleep(0.001)
        assert server._rebuilding, "rebuild window never opened"
        # Same point, conflicting ops: only submission order disambiguates.
        server.insert(kept)
        assert server.delete(kept)
        server.insert(kept)      # net effect: present
        server.insert(dropped)
        assert server.delete(dropped)  # net effect: absent
        worker.join()
        assert server.generation == 1
        processor = server._gen.processor
        assert processor.point_query(kept), "journal replay lost the final insert"
        assert not processor.point_query(dropped), "journal replay resurrected a delete"
        server.close()


class TestSnapshotHardening:
    def test_orphaned_tmp_files_cleaned_on_startup(self, tmp_path):
        orphan = tmp_path / ".gen-000004.tmp.npz"
        orphan.write_bytes(b"half a snapshot")
        manager = SnapshotManager(tmp_path)
        assert not orphan.exists()
        assert manager.generations() == []

    def test_load_falls_back_past_corrupt_snapshot(
        self, built_index, osm_points, tmp_path
    ):
        manager = SnapshotManager(tmp_path)
        manager.save(built_index, 0)
        manager.save(built_index, 1)
        manager.path_for(1).write_bytes(b"\x00" * 100)  # torn newest snapshot
        loaded, gen = manager.load()
        assert gen == 0
        assert (tmp_path / "gen-000001.npz.corrupt").exists()
        np.testing.assert_array_equal(
            loaded.point_queries(osm_points[:20]),
            built_index.point_queries(osm_points[:20]),
        )

    def test_damage_anywhere_in_the_file_falls_back(
        self, built_index, osm_points, tmp_path
    ):
        """64 overwritten bytes at any offset — zip headers, the central
        directory or the middle of a deflate stream (``zlib.error``) —
        quarantine the file and load the older generation."""
        manager = SnapshotManager(tmp_path)
        manager.save(built_index, 0)
        manager.save(built_index, 1)
        intact = manager.path_for(1).read_bytes()
        expected = built_index.point_queries(osm_points[:20])
        for offset in np.linspace(0, len(intact) - 64, 39).astype(int):
            damaged = bytearray(intact)
            damaged[offset : offset + 64] = b"\xa5" * 64
            manager.path_for(1).write_bytes(bytes(damaged))
            loaded, gen = manager.load()
            assert gen == 0, f"offset {offset}"
            np.testing.assert_array_equal(
                loaded.point_queries(osm_points[:20]), expected
            )
            (tmp_path / "gen-000001.npz.corrupt").unlink()

    def test_retired_format_is_not_quarantined(self, built_index, tmp_path):
        """An intact file with an old ``repro-*-v1`` tag is not corrupt:
        the typed error reaches the caller and the file keeps its name."""
        from repro.storage.persist import OldFormatError

        manager = SnapshotManager(tmp_path)
        manager.save(built_index, 0)
        meta = np.frombuffer(b'{"format": "repro-zm-v1"}', dtype=np.uint8)
        np.savez_compressed(manager.path_for(1), meta=meta)
        with pytest.raises(OldFormatError, match="repro-zm-v1"):
            manager.load()
        assert manager.generations() == [0, 1]
        with pytest.raises(OldFormatError):
            IndexServer.from_snapshot(str(tmp_path))
        assert manager.generations() == [0, 1]

    def test_explicit_generation_load_is_strict(self, built_index, tmp_path):
        manager = SnapshotManager(tmp_path)
        manager.save(built_index, 2)
        manager.path_for(2).write_bytes(b"garbage")
        with pytest.raises(Exception):
            manager.load(2)
        assert manager.path_for(2).exists()  # strict mode never quarantines

    def test_all_corrupt_raises_not_found(self, built_index, tmp_path):
        manager = SnapshotManager(tmp_path)
        manager.save(built_index, 0)
        manager.path_for(0).write_bytes(b"junk")
        with pytest.raises(FileNotFoundError):
            manager.load()


#: ``(name, labels)`` of ``IndexServer.stats_snapshot()`` after the scripted
#: session below, as the parent commit (the last one with
#: ``ServerStats.snapshot()`` beside it) printed them.
SERVER_SCHEMA = {
    ("faults.triggered", (("kind", "delay"), ("site", "serve.dispatch"))),
    ("serve.requests_shed", (("reason", "overloaded"),)),
    ("serve.requests_submitted", (("kind", "point"),)),
    ("serve.requests_submitted", (("kind", "window"),)),
    ("serve.updates", (("op", "delete"),)),
    ("serve.updates", (("op", "insert"),)),
    *(
        (f"serve.{name}", ())
        for name in (
            "batched_requests", "batches", "generation_age_seconds",
            "generation_swaps", "health_state", "max_batch_size", "queue_depth",
            "queue_wait_seconds", "rebuild_failures", "rebuild_journal_depth",
            "rebuild_seconds", "rebuilds", "request_errors",
            "request_latency_seconds", "requests_completed", "service_seconds",
            "snapshot_failures", "snapshots_saved", "swap_seconds",
            "wal_appends", "wal_depth",
        )
    ),
}


def test_server_snapshot_schema_is_the_parents(small_server_parts, osm_points):
    """32 point requests, one window, one insert, one rebuild, one shed:
    the export names and label sets are what they were before the
    ``ServerStats`` views went, and the counts are the session's."""
    from repro.obs.metrics import get_registry

    index, config, factory = small_server_parts
    get_registry().clear()  # the snapshot merges the process-wide registry
    server = IndexServer(
        index,
        ServeConfig(max_wait_seconds=0.0, auto_rebuild=False),
        elsi_config=config,
        index_factory=factory,
    )
    with server:
        for p in osm_points[:32]:
            assert server.point_query(p)
        server.window_query(Rect.centered(np.array([0.5, 0.5]), 0.1))
        server.insert(np.array([0.123, 0.456]))
        server.rebuild_now()
        get_fault_registry().arm("serve.dispatch", kind="delay", delay_seconds=1.0)
        accepted = [server.submit_point(osm_points[0])]
        time.sleep(0.05)
        with pytest.raises(ServerOverloaded):
            for i in range(1, MAX_QUEUE_DEPTH + 2):
                accepted.append(server.submit_point(osm_points[i % len(osm_points)]))
        get_fault_registry().reset()
        for reply in accepted:
            reply.wait(20)
        snapshot = server.stats_snapshot()
    assert {
        (name, tuple(sorted(entry["labels"].items())))
        for name, series in snapshot.items()
        for entry in series
    } == SERVER_SCHEMA
    assert series_sum(snapshot, "serve.requests_submitted") == 33 + len(accepted)
    assert series_sum(snapshot, "serve.requests_completed") == 33 + len(accepted)
    assert series_sum(snapshot, "serve.requests_submitted", kind="window") == 1
    assert series_sum(snapshot, "serve.updates", op="insert") == 1
    assert series_sum(snapshot, "serve.rebuilds") == 1
    assert series_sum(snapshot, "serve.requests_shed") == 1
    assert histogram_stat(snapshot, "serve.swap_seconds", "count") == 1
