"""Fleet observability: the router's one-scrape-per-call fleet snapshot
and health verdict over stub handles, and cross-process trace propagation
over a real 2-shard cluster."""

import time

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, series_sum
from repro.obs.report import (
    check_cross_process,
    load_trace,
    request_ids,
    request_spans,
)
from repro.obs.trace import get_tracer
from repro.shard import ShardRouter, build_cluster
from repro.shard.errors import ShardUnavailable
from repro.shard.shardmap import ShardMap
from repro.spatial.rect import Rect


# ----------------------------------------------------------------------
# Fleet snapshot and health verdict against stub handles (no processes)
# ----------------------------------------------------------------------
class _ScrapeStubHandle:
    def __init__(self, shard_id, down=False):
        self.shard_id = shard_id
        self.down = down
        self.registry = MetricsRegistry()
        self.registry.counter("serve.requests_completed").inc(10 * (shard_id + 1))
        self.registry.gauge("serve.queue_depth").set(shard_id)
        self.commands = []

    def alive(self):
        return not self.down

    def request(self, command, *payload, timeout=None, trace=None):
        self.commands.append(command)
        if self.down:
            raise ShardUnavailable("down")
        if command == "stats":
            return self.registry.export()
        if command == "status":
            return {"health": "healthy", "generation": 1,
                    "n_points": 100 * (self.shard_id + 1)}
        raise AssertionError(command)

    def close(self):
        pass


def _stub_fleet(handles):
    smap = ShardMap(
        np.asarray([2**30] * (len(handles) - 1), dtype=np.uint64),
        Rect.unit(),
    )
    return ShardRouter(smap, handles)


class TestFleetSnapshot:
    """``router.stats_snapshot()`` is one scrape of every shard per call,
    and ``health_summary()`` the fleet verdict."""

    def test_scrape_merges_and_marks_up(self):
        router = _stub_fleet([_ScrapeStubHandle(0), _ScrapeStubHandle(1)])
        with router:
            merged = router.stats_snapshot()
        # 10 + 20, counters sum across shards
        assert series_sum(merged, "serve.requests_completed") == 30
        for shard in (0, 1):
            assert series_sum(merged, "telemetry.shard_up", shard=shard) == 1.0
            assert series_sum(merged, "telemetry.scrape_age_seconds", shard=shard) < 5.0
        assert len(merged["telemetry.shard_up"]) == 2

    def test_down_shard_keeps_last_export_and_ages(self):
        down = _ScrapeStubHandle(1)
        router = _stub_fleet([_ScrapeStubHandle(0), down])
        with router:
            router.stats_snapshot()
            down.down = True
            time.sleep(0.05)
            merged = router.stats_snapshot()
            health = router.health_summary()
        assert series_sum(merged, "telemetry.shard_up", shard=0) == 1.0
        assert series_sum(merged, "telemetry.shard_up", shard=1) == 0.0
        assert series_sum(merged, "telemetry.scrape_failures", shard=1) == 1
        # History survives: shard 1's counters are still in the view.
        assert series_sum(merged, "serve.requests_completed") == 30
        # Staleness grows while down.
        assert series_sum(
            merged, "telemetry.scrape_age_seconds", shard=1
        ) > series_sum(merged, "telemetry.scrape_age_seconds", shard=0)
        assert health["overall"] == "degraded"
        assert health["shards"][1] == {"health": "down", "error": "ShardUnavailable"}

    def test_never_scraped_shard_counts_as_down(self):
        router = _stub_fleet([_ScrapeStubHandle(0, down=True)])
        with router:
            merged = router.stats_snapshot()
            health = router.health_summary()
        assert health["overall"] == "down"
        assert len(merged["telemetry.shard_up"]) == 1
        assert series_sum(merged, "telemetry.shard_up") == 0.0
        assert "serve.requests_completed" not in merged

    def test_snapshot_scrapes_once_per_call(self):
        """Each call asks every shard for ``stats`` once (no ``status``,
        no thread between calls), and a shard that stops answering keeps
        its last export."""
        handles = [_ScrapeStubHandle(0), _ScrapeStubHandle(1)]
        router = _stub_fleet(handles)
        with router:
            snap = router.stats_snapshot()
            assert series_sum(snap, "telemetry.scrapes") == 2
            assert series_sum(snap, "serve.requests_completed") == 30
            handles[0].registry.counter("serve.requests_completed").inc(5)
            handles[1].down = True
            snap = router.stats_snapshot()
        assert series_sum(snap, "telemetry.scrapes", shard=0) == 2
        assert series_sum(snap, "telemetry.scrapes", shard=1) == 1
        assert series_sum(snap, "telemetry.scrape_failures", shard=1) == 1
        assert series_sum(snap, "serve.requests_completed") == 35
        assert [h.commands for h in handles] == [["stats"] * 2, ["stats"] * 2]


#: ``(name, labels)`` of a two-stub-shard ``router.stats_snapshot()`` with
#: shard 1 gone after its first scrape: the set the parent commit printed,
#: less its five ``slo.*`` gauges.
ROUTER_SCHEMA = {
    ("serve.queue_depth", ()),
    ("serve.requests_completed", ()),
    *((f"telemetry.{name}", (("shard", shard),)) for shard in "01" for name in (
        "scrape_age_seconds", "scrapes", "shard_up",
    )),
    ("telemetry.scrape_failures", (("shard", "1"),)),
}


def test_router_snapshot_schema_is_the_parents():
    down = _ScrapeStubHandle(1)
    router = _stub_fleet([_ScrapeStubHandle(0), down])
    with router:
        router.stats_snapshot()
        down.down = True
        snapshot = router.stats_snapshot()
    assert {
        (name, tuple(sorted(entry["labels"].items())))
        for name, series in snapshot.items()
        for entry in series
    } == ROUTER_SCHEMA


def test_router_config_fields_are_pinned():
    """No settable values: the deadline, the retry budget and its backoff
    window are module constants, and a dead or wedged shard is always
    respawned for an idempotent query."""
    import inspect

    import repro.shard
    from repro.shard import router

    assert list(inspect.signature(ShardRouter).parameters) == ["shard_map", "handles"]
    assert not hasattr(repro.shard, "RouterConfig")
    assert (
        router.REQUEST_TIMEOUT, router.MAX_RETRIES,
        router.RETRY_BASE_DELAY, router.RETRY_MAX_DELAY,
    ) == (60.0, 3, 0.01, 0.5)


# ----------------------------------------------------------------------
# Cross-process tracing over a real 2-shard cluster (the tentpole)
# ----------------------------------------------------------------------
_ELSI = {"train_epochs": 30, "seed": 0}


@pytest.fixture(scope="module")
def traced_cluster(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fleet-obs-cluster")
    rng = np.random.default_rng(7)
    points = rng.random((4000, 2))
    router = build_cluster(
        points,
        directory / "cluster",
        n_shards=2,
        elsi=_ELSI,
        serve={"max_wait_seconds": 0.0},
    )
    tracer = get_tracer()
    trace_path = directory / "trace.jsonl"
    tracer.enable(path=str(trace_path))
    try:
        with router:
            hits = router.point_queries(points[:64])
            windows = router.window_queries(
                [Rect((0.1, 0.1), (0.6, 0.6)), Rect((0.0, 0.0), (0.2, 0.2))]
            )
            knn = router.knn_queries(points[:4], 3)
            router.insert(np.array([0.5, 0.5]))
            snapshot = router.stats_snapshot()
        yield {
            "hits": hits,
            "windows": windows,
            "knn": knn,
            "snapshot": snapshot,
            "records": tracer.spans(),
            "trace_path": trace_path,
        }
    finally:
        tracer.disable()
        tracer.reset()


class TestCrossProcessTracing:
    def test_queries_answered_correctly_while_traced(self, traced_cluster):
        assert traced_cluster["hits"].all()
        assert all(len(w) > 0 for w in traced_cluster["windows"])
        assert all(len(k) == 3 for k in traced_cluster["knn"])

    def test_scatter_adopts_worker_dispatch_spans(self, traced_cluster):
        records = traced_cluster["records"]
        problem = check_cross_process(records, "shard.scatter", "serve.dispatch")
        assert problem is None, problem

    def test_one_trace_id_per_request_across_processes(self, traced_cluster):
        records = traced_cluster["records"]
        rids = request_ids(records)
        assert len(rids) >= 4  # point, window, knn scatters + update
        router_pid = None
        for rid in rids:
            subset = request_spans(records, rid)
            trace_ids = {r.trace_id for r in subset}
            assert len(trace_ids) == 1  # the whole tree shares one trace
            root = subset[0]
            if root.name == "shard.scatter":
                assert root.trace_id == root.span_id
            router_pid = root.pid
        # The point scatter fans to both shards: its request tree spans
        # the router process plus at least one distinct worker pid.
        point_rid = rids[0]
        pids = {r.pid for r in request_spans(records, point_rid)}
        assert len(pids) >= 2
        assert router_pid in pids

    def test_per_shard_dispatch_children_per_contacted_shard(self, traced_cluster):
        records = traced_cluster["records"]
        scatters = [
            r for r in records
            if r.name == "shard.scatter" and r.attrs.get("kind") == "point"
        ]
        assert scatters
        scatter = scatters[0]
        dispatches = [
            r for r in records
            if r.name == "serve.dispatch"
            and r.attrs.get("request_id") == scatter.attrs.get("request_id")
        ]
        shards = {r.attrs.get("shard") for r in dispatches}
        assert shards == {0, 1}  # one adopted child per contacted shard
        for r in dispatches:
            assert r.trace_id == scatter.trace_id

    def test_slo_and_fleet_gauges_in_snapshot(self, traced_cluster):
        snapshot = traced_cluster["snapshot"]
        assert not [name for name in snapshot if name.startswith("slo.")]
        for shard in (0, 1):
            assert series_sum(snapshot, "telemetry.shard_up", shard=shard) == 1
        assert "worker.cpu_seconds" in snapshot
        cpu_shards = {
            e["labels"]["shard"] for e in snapshot["worker.cpu_seconds"]
        }
        assert cpu_shards == {"0", "1"}

    def test_trace_file_supports_request_dump(self, traced_cluster):
        records = load_trace(str(traced_cluster["trace_path"]))
        rids = request_ids(records)
        assert rids
        subset = request_spans(records, rids[0])
        assert {r.name for r in subset} >= {"shard.scatter", "serve.dispatch"}
