"""Tests for serving in the waiting thread (flat combining).

A thread that waits on a reply whose request is still queued serves the
queue itself, under the server's one ``_serving`` lock, instead of
handing the work to the dispatcher and sleeping until it hands the
answer back.  The dispatcher still serves whatever nobody waits for.
These tests pin who serves, that nothing is stranded or served twice
when waiters, the dispatcher and ``close()`` race, that a waiter whose
request another thread is serving sleeps instead of spinning, and that a
shard request's batch spans now nest under its dispatch span.

Tests that need the waiter, not the dispatcher, to take a flight run
under ``slow_switching``: the interpreter then hands the GIL to the
woken dispatcher only when the client blocks, and a client that submits
and waits never blocks before its flight is taken.
"""

import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.faults import get_fault_registry
from repro.indices import ZMIndex
from repro.obs.metrics import series_sum
from repro.serve import IndexServer, ServerClosed
from repro.serve.server import MAX_BATCH_SIZE
from repro.shard.worker import WorkerSpec, _traced_dispatch
from tests.brute import point_truth


@pytest.fixture(scope="module")
def built_index(osm_points):
    config = ELSIConfig(train_epochs=80)
    return ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(osm_points)


@pytest.fixture(scope="module")
def probes(osm_points):
    rng = np.random.default_rng(21)
    return np.vstack([osm_points[:300], rng.random((300, 2)) + 2.0])


@pytest.fixture()
def slow_switching():
    """The GIL changes hands only when its holder blocks: a 5 s switch
    interval, and no garbage collection, whose finalizers (a file left
    open by an earlier test) may block on I/O."""
    interval = sys.getswitchinterval()
    gc.collect()
    gc.disable()
    sys.setswitchinterval(5.0)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
        gc.enable()


def _server(index) -> IndexServer:
    return IndexServer(index, elsi_config=ELSIConfig(train_epochs=80)).start()


def _until(condition, seconds: float = 10.0) -> None:
    deadline = time.perf_counter() + seconds
    while not condition():
        assert time.perf_counter() < deadline, "condition never came true"
        time.sleep(0.001)


def _record_batches(server, monkeypatch) -> list:
    """Patch ``server._serve_batch`` to log ``(thread id, batch size)``."""
    calls: list = []
    serve = server._serve_batch

    def recording(batch):
        calls.append((threading.get_ident(), len(batch)))
        serve(batch)

    monkeypatch.setattr(server, "_serve_batch", recording)
    return calls


def _dispatcher_ident(server) -> int:
    (thread,) = [t for t in server._threads if t.name == "serve-dispatch"]
    return thread.ident


class TestWhoServes:
    def test_a_closed_loop_flight_is_served_whole_by_its_waiter(
        self, built_index, osm_points, probes, monkeypatch, slow_switching
    ):
        server = _server(built_index)
        try:
            calls = _record_batches(server, monkeypatch)
            _until(lambda: server._parked)
            flight = probes[::4][:128]
            replies = [server.submit_point(p) for p in flight]
            answers = [reply.wait(10.0) for reply in replies]
        finally:
            server.close()
        assert calls == [(threading.get_ident(), 128)]
        assert answers == point_truth(osm_points, flight).tolist()
        snap = server.stats.registry.export()
        assert series_sum(snap, "serve.batches") == 1
        assert series_sum(snap, "serve.requests_completed") == 128

    def test_a_batch_larger_than_the_cap_is_served_in_fifo_batches(
        self, built_index, osm_points, probes, monkeypatch, slow_switching
    ):
        """A waiter serves batches oldest first until its own reply is
        done, and leaves the rest of the queue where it is."""
        cap = MAX_BATCH_SIZE
        flight = np.vstack([probes, probes])[: 2 * cap + cap // 2]
        server = _server(built_index)
        try:
            calls = _record_batches(server, monkeypatch)
            _until(lambda: server._parked)
            replies = [server.submit_point(p) for p in flight]
            assert replies[cap + 4].wait(10.0) == point_truth(
                osm_points, flight[cap + 4 : cap + 5]
            )[0]
            me = threading.get_ident()
            assert calls == [(me, cap), (me, cap)]
            assert not replies[2 * cap].done()
            answers = [reply.wait(10.0) for reply in replies]
        finally:
            server.close()
        # The last half batch goes to whoever takes ``_serving`` next: this
        # waiter or the dispatcher its first submission woke.
        assert [size for _, size in calls] == [cap, cap, cap // 2]
        assert answers == point_truth(osm_points, flight).tolist()

    def test_a_request_nobody_waits_on_is_served_by_the_dispatcher(
        self, built_index, osm_points, probes, monkeypatch
    ):
        server = _server(built_index)
        try:
            calls = _record_batches(server, monkeypatch)
            reply = server.submit_point(probes[0])
            _until(reply.done)
            dispatcher = _dispatcher_ident(server)
        finally:
            server.close()
        assert calls == [(dispatcher, 1)]
        assert reply.wait(0) is True
        assert reply.generation == 0


class TestRaces:
    def test_waiters_racing_close_strand_nothing(
        self, built_index, osm_points, probes, fast_switching
    ):
        """Four clients submit flights of eight and wait on them while
        close() lands mid-stream: every accepted request is answered
        right or rejected with ServerClosed, no wait times out, and the
        counters add up."""
        truth = point_truth(osm_points, probes)
        server = _server(built_index)
        lock = threading.Lock()
        answered: list = []  # (probe number, answer)
        rejected = accepted = 0
        failures: list = []

        def client(offset: int) -> None:
            nonlocal rejected, accepted
            try:
                for lo in range(offset * 8, 40 * len(probes), 32):
                    flight = []
                    for j in range(lo, lo + 8):
                        j %= len(probes)
                        try:
                            flight.append((j, server.submit_point(probes[j])))
                        except ServerClosed:
                            break
                    with lock:
                        accepted += len(flight)
                    for j, reply in flight:
                        try:
                            answer = reply.wait(10.0)
                        except ServerClosed:
                            with lock:
                                rejected += 1
                            continue
                        with lock:
                            answered.append((j, answer))
                    if len(flight) < 8:
                        return
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.15)
        server.close()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert failures == []
        assert answered
        assert all(answer == truth[j] for j, answer in answered)
        assert accepted == len(answered) + rejected
        snap = server.stats.registry.export()
        assert series_sum(snap, "serve.requests_submitted", kind="point") == accepted
        assert series_sum(snap, "serve.requests_completed") == len(answered)
        assert series_sum(snap, "serve.request_errors") == 0
        assert series_sum(snap, "serve.requests_shed", reason="closed") == rejected
        assert series_sum(snap, "serve.batched_requests") == len(answered)
        assert not server._pending

    def test_a_waiter_whose_batch_is_taken_blocks_instead_of_spinning(
        self, built_index, probes, monkeypatch
    ):
        server = _server(built_index)
        takes: list = []
        take = server._take_batch

        def counting():
            takes.append(threading.get_ident())
            return take()

        monkeypatch.setattr(server, "_take_batch", counting)
        try:
            get_fault_registry().arm("serve.dispatch", kind="delay", delay_seconds=0.3)
            reply = server.submit_point(probes[0])
            _until(lambda: not server._pending)  # the dispatcher took it
            cpu, wall = time.thread_time(), time.perf_counter()
            assert reply.wait(10.0) is True
            cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
            dispatcher = _dispatcher_ident(server)
        finally:
            server.close()
        assert takes == [dispatcher]
        assert wall > 0.1
        assert cpu < 0.25 * wall

    def test_an_interrupt_while_serving_reaches_the_waiter(
        self, built_index, probes, monkeypatch, slow_switching
    ):
        """A KeyboardInterrupt raised in a batch a client serves fails
        that batch's replies and stops the client there, even when its
        own request waits in a later batch; the server serves on."""
        cap = MAX_BATCH_SIZE
        server = _server(built_index)
        processor = server._gen.processor
        lookups = processor.point_queries
        raised: list = []

        def interrupted_once(points):
            if not raised:
                raised.append(len(points))
                raise KeyboardInterrupt
            return lookups(points)

        monkeypatch.setattr(processor, "point_queries", interrupted_once)
        try:
            _until(lambda: server._parked)
            replies = [server.submit_point(p) for p in probes[: cap + 1]]
            with pytest.raises(KeyboardInterrupt):
                replies[cap].wait(10.0)
            for reply in replies[:cap]:
                with pytest.raises(KeyboardInterrupt):
                    reply.wait(0)
            assert replies[cap].wait(10.0) is True  # probes[cap] is indexed
        finally:
            server.close()
        assert raised == [cap]
        snap = server.stats.registry.export()
        assert series_sum(snap, "serve.request_errors") == cap
        assert series_sum(snap, "serve.requests_completed") == 1
        assert series_sum(snap, "serve.batches") == 2

    def test_wait_times_out_while_another_thread_serves(
        self, built_index, osm_points, probes
    ):
        """A client whose request is queued behind a batch that another
        client is serving (held by a ``serve.dispatch`` delay) gets its
        TimeoutError on time, and its answer later."""
        server = _server(built_index)
        try:
            get_fault_registry().arm("serve.dispatch", kind="delay", delay_seconds=0.5)
            first: list = []
            other = threading.Thread(
                target=lambda: first.append(server.submit_point(probes[0]).wait(10.0))
            )
            other.start()
            _until(lambda: server._serving.locked() and not server._pending)
            second = server.submit_point(probes[1])
            started = time.perf_counter()
            with pytest.raises(TimeoutError):
                second.wait(0.05)
            assert time.perf_counter() - started < 0.4
            assert not second.done()
            other.join(timeout=10)
            assert first == [True]
            assert second.wait(10.0) == point_truth(osm_points, probes[1:2])[0]
        finally:
            server.close()


class TestTracedShardRequest:
    def test_batch_spans_nest_under_the_dispatch_span(
        self, built_index, probes, slow_switching
    ):
        """A shard worker submits and waits in one thread, so the batch
        it serves is recorded under its ``serve.dispatch`` span, in the
        caller's trace (the dispatcher thread's batches were roots)."""
        server = _server(built_index)
        trace = {"trace_id": "t-1", "parent_span_id": "p-1", "request_id": "r-1"}
        captured: list = []
        try:
            _until(lambda: server._parked)
            hits = _traced_dispatch(
                server, WorkerSpec(shard_id=3, directory="."), "point_batch",
                (probes[:64],), 30.0, trace, captured,
            )
        finally:
            server.close()
        assert hits.shape == (64,)
        by_name = {}
        for record in captured:
            by_name.setdefault(record.name, []).append(record)
        (dispatch,) = by_name["serve.dispatch"]
        (batch,) = by_name["serve.batch"]
        (lookup,) = by_name["query.point_batch"]
        assert dispatch.parent_id == "p-1"
        assert batch.parent_id == dispatch.span_id
        assert lookup.parent_id == batch.span_id
        assert batch.attrs["size"] == 1
        assert {r.trace_id for r in captured} == {"t-1"}
