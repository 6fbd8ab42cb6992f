"""Fleet observability: SLO tracking, telemetry poller, /metrics, obs top,
and cross-process trace propagation over a real 2-shard cluster."""

import json
import time
import urllib.request

import numpy as np
import pytest

from repro.obs.httpd import MetricsServer
from repro.obs.metrics import MetricsRegistry, series_sum
from repro.obs.report import (
    check_cross_process,
    load_trace,
    request_ids,
    request_spans,
)
from repro.obs.slo import SLOConfig, SLOTarget, SLOTracker
from repro.obs.top import render_top
from repro.obs.trace import get_tracer
from repro.shard import RouterConfig, ShardRouter, build_cluster
from repro.shard.errors import ShardUnavailable
from repro.shard.shardmap import ShardMap
from repro.shard.telemetry import FleetTelemetry
from repro.spatial.rect import Rect


# ----------------------------------------------------------------------
# SLO tracker (pure, no processes)
# ----------------------------------------------------------------------
class TestSLOTracker:
    def test_target_validation_and_budget(self):
        assert SLOTarget(0.1).budget == pytest.approx(0.01)
        assert SLOTarget(0.1, quantile=99.9).budget == pytest.approx(0.001)
        with pytest.raises(ValueError, match="latency"):
            SLOTarget(0.0)
        with pytest.raises(ValueError, match="quantile"):
            SLOTarget(0.1, quantile=100.0)
        with pytest.raises(ValueError, match="window_seconds"):
            SLOConfig(window_seconds=0.0)

    def test_quantiles_over_recorded_latencies(self):
        slo = SLOTracker({"point": 1.0})
        for _ in range(98):
            slo.record("point", 0.001)
        slo.record("point", 0.5)
        slo.record("point", 0.5)
        q = slo.quantiles("point")
        assert q["n"] == 100
        assert q["p50"] <= 0.005  # log buckets: upper bound within 1 doubling
        assert q["p99"] >= 0.25  # rank 99 lands on the slow tail
        assert q["p999"] >= q["p99"]

    def test_quantile_is_the_samples_own_bucket_bound(self):
        """One 20 ms request sits in (16.4, 32.8] ms; the gauges must not
        read the next bucket's 65.5 ms."""
        slo = SLOTracker()
        slo.record("point", 0.020)
        q = slo.quantiles("point")
        assert q["p50"] == q["p99"] == q["p999"] == 0.020
        slo.record("point", 1.0)
        q = slo.quantiles("point")
        assert (q["p50"], q["p99"], q["n"]) == (0.032768, 1.0, 2)
        registry = MetricsRegistry()
        slo.publish(registry)
        assert series_sum(registry.export(), "slo.p50_seconds", kind="point") == 0.032768

    def test_burn_rate_against_budget(self):
        # p99 target: 1% budget.  5% violations => burn 5.
        slo = SLOTracker({"point": 0.01})
        for _ in range(95):
            slo.record("point", 0.001)
        for _ in range(5):
            slo.record("point", 0.1)
        assert slo.burn_rate("point") == pytest.approx(5.0)
        assert slo.burning() == ["point"]

    def test_no_target_means_quantiles_but_no_burn(self):
        slo = SLOTracker()
        slo.record("window", 0.02)
        assert slo.quantiles("window")["n"] == 1
        assert slo.burn_rate("window") == 0.0
        assert slo.burning() == []

    def test_window_expires_old_samples(self):
        slo = SLOTracker(SLOConfig(targets={"point": 0.01},
                                   window_seconds=0.2, n_slices=2))
        slo.record("point", 0.5)
        assert slo.burn_rate("point") > 0
        time.sleep(0.45)  # > window + one slice of wobble
        assert slo.quantiles("point")["n"] == 0
        assert slo.burn_rate("point") == 0.0

    def test_batch_count_weighting(self):
        slo = SLOTracker({"point": 0.01})
        slo.record("point", 0.1, count=50)
        slo.record("point", 0.001, count=50)
        assert slo.quantiles("point")["n"] == 100
        assert slo.burn_rate("point") == pytest.approx(50.0)

    def test_publish_writes_gauges(self):
        slo = SLOTracker({"point": 0.01})
        slo.record("point", 0.001)
        slo.record("update", 0.002)  # observed, untargeted
        registry = MetricsRegistry()
        slo.publish(registry)
        exported = registry.export()
        kinds = {e["labels"]["kind"] for e in exported["slo.p99_seconds"]}
        assert kinds == {"point", "update"}
        burn_kinds = {e["labels"]["kind"] for e in exported["slo.burn_rate"]}
        assert burn_kinds == {"point"}  # burn only where a target exists
        assert "slo.window_requests" in exported

    def test_snapshot_carries_targets(self):
        slo = SLOTracker({"knn": SLOTarget(0.2, quantile=99.0)})
        slo.record("knn", 0.01)
        snap = slo.snapshot()
        assert snap["knn"]["target_latency"] == 0.2
        assert snap["knn"]["burn_rate"] == 0.0


# ----------------------------------------------------------------------
# Telemetry poller against stub handles (no processes)
# ----------------------------------------------------------------------
class _ScrapeStubHandle:
    def __init__(self, shard_id, down=False):
        self.shard_id = shard_id
        self.down = down
        self.registry = MetricsRegistry()
        self.registry.counter("serve.requests_completed").inc(10 * (shard_id + 1))
        self.registry.gauge("serve.queue_depth").set(shard_id)

    def alive(self):
        return not self.down

    def request(self, command, *payload, timeout=None, trace=None):
        if self.down:
            raise ShardUnavailable("down", shard_id=self.shard_id)
        if command == "stats":
            return self.registry.export()
        if command == "status":
            return {"health": "healthy", "generation": 1,
                    "n_points": 100 * (self.shard_id + 1)}
        raise AssertionError(command)

    def close(self):
        pass


def _stub_fleet(handles, **config):
    smap = ShardMap(
        np.asarray([2**30] * (len(handles) - 1), dtype=np.uint64),
        Rect.unit(), bits=16,
    )
    return ShardRouter(smap, handles, config=RouterConfig(**config))


class TestFleetTelemetry:
    def test_interval_validation(self):
        router = _stub_fleet([_ScrapeStubHandle(0)])
        with pytest.raises(ValueError, match="interval"):
            FleetTelemetry(router, interval=0.0)
        with pytest.raises(ValueError, match="telemetry_interval"):
            RouterConfig(telemetry_interval=-1.0)

    def test_scrape_merges_and_marks_up(self):
        router = _stub_fleet([_ScrapeStubHandle(0), _ScrapeStubHandle(1)])
        telemetry = FleetTelemetry(router, interval=5.0)
        telemetry.scrape_now()
        merged = telemetry.merged()
        # 10 + 20, counters sum across shards
        assert series_sum(merged, "serve.requests_completed") == 30
        for shard in (0, 1):
            assert series_sum(merged, "telemetry.shard_up", shard=shard) == 1.0
            assert series_sum(merged, "telemetry.scrape_age_seconds", shard=shard) < 5.0
        assert len(merged["telemetry.shard_up"]) == 2

    def test_down_shard_keeps_last_export_and_ages(self):
        down = _ScrapeStubHandle(1)
        router = _stub_fleet([_ScrapeStubHandle(0), down])
        telemetry = FleetTelemetry(router, interval=5.0)
        telemetry.scrape_now()
        down.down = True
        time.sleep(0.05)
        telemetry.scrape_now()
        merged = telemetry.merged()
        assert series_sum(merged, "telemetry.shard_up", shard=0) == 1.0
        assert series_sum(merged, "telemetry.shard_up", shard=1) == 0.0
        assert series_sum(merged, "telemetry.scrape_failures", shard=1) == 1
        # History survives: shard 1's counters are still in the view.
        assert series_sum(merged, "serve.requests_completed") == 30
        # Staleness grows while down.
        assert series_sum(
            merged, "telemetry.scrape_age_seconds", shard=1
        ) > series_sum(merged, "telemetry.scrape_age_seconds", shard=0)
        overview = telemetry.overview()
        assert overview["overall"] == "degraded"
        assert overview["shards"][1]["health"] == "down"
        assert overview["shards"][1]["error"] == "ShardUnavailable"

    def test_never_scraped_shard_counts_as_down(self):
        router = _stub_fleet([_ScrapeStubHandle(0)])
        telemetry = FleetTelemetry(router, interval=5.0)
        overview = telemetry.overview()  # no scrape yet
        assert overview["overall"] == "down"
        merged = telemetry.merged()
        assert len(merged["telemetry.shard_up"]) == 1
        assert series_sum(merged, "telemetry.shard_up") == 0.0

    def test_poller_thread_refreshes_and_router_uses_cache(self):
        handle = _ScrapeStubHandle(0)
        router = _stub_fleet([handle], telemetry_interval=0.05)
        try:
            assert router.telemetry is not None and router.telemetry.running
            handle.registry.counter("serve.requests_completed").inc(5)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                snap = router.stats_snapshot()
                if series_sum(snap, "serve.requests_completed") == 15:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("poller never picked up the new counter value")
            assert "telemetry.scrape_age_seconds" in snap
            assert "slo.p50_seconds" in snap or True  # slo gauges join once recorded
        finally:
            router.close()
        assert not router.telemetry.running  # close() stops the poller

    def test_router_overview_without_poller_scrapes_once(self):
        router = _stub_fleet([_ScrapeStubHandle(0)])
        try:
            overview = router.overview()
            assert overview["overall"] == "healthy"
            assert overview["shards"][0]["requests_completed"] == 10.0
        finally:
            router.close()

    def test_snapshot_and_overview_share_the_one_scrape(self):
        """With or without the poller, both router views come off the same
        ``FleetTelemetry``: each call without a poller is one scrape of it,
        and a shard that stops answering keeps its last export."""
        down = _ScrapeStubHandle(1)
        router = _stub_fleet([_ScrapeStubHandle(0), down])
        try:
            assert not router.telemetry.running
            snap = router.stats_snapshot()
            assert series_sum(snap, "telemetry.scrapes") == 2
            assert series_sum(snap, "serve.requests_completed") == 30
            down.down = True
            overview = router.overview()
            assert overview["overall"] == "degraded"
            assert overview["shards"][1]["requests_completed"] == 20.0
            snap = router.stats_snapshot()
            assert series_sum(snap, "telemetry.scrapes", shard=0) == 3
            assert series_sum(snap, "telemetry.scrape_failures", shard=1) == 2
            assert series_sum(snap, "telemetry.shard_up", shard=1) == 0.0
            assert series_sum(snap, "serve.requests_completed") == 30
            router.start_telemetry(interval=0.05)
            assert router.telemetry.running and router.telemetry.interval == 0.05
        finally:
            router.close()


#: ``(name, labels)`` of a two-stub-shard ``router.stats_snapshot()`` with
#: shard 1 gone after its first scrape and one SLO sample recorded, as the
#: parent commit printed it with its poller running — less the parent's
#: on-demand-only ``router.stats_unreachable`` (``telemetry.scrape_failures``
#: says the same) and the ``router.shard_deaths`` its on-demand stats probe
#: added.  Snapshots without a poller now carry this same set.
ROUTER_SCHEMA = {
    ("serve.queue_depth", ()),
    ("serve.requests_completed", ()),
    *((f"slo.{name}", (("kind", "point"),)) for name in (
        "burn_rate", "p50_seconds", "p99_seconds", "p999_seconds", "window_requests",
    )),
    *((f"telemetry.{name}", (("shard", shard),)) for shard in "01" for name in (
        "scrape_age_seconds", "scrapes", "shard_up",
    )),
    ("telemetry.scrape_failures", (("shard", "1"),)),
}


@pytest.mark.parametrize("config", [{}, {"telemetry_interval": 5.0}])
def test_router_snapshot_schema_is_the_parents(config):
    down = _ScrapeStubHandle(1)
    router = _stub_fleet(
        [_ScrapeStubHandle(0), down], slo_targets={"point": 0.05}, **config
    )
    try:
        router.slo.record("point", 0.001)
        router.stats_snapshot()
        down.down = True
        if router.telemetry.running:
            router.telemetry.scrape_now()
        snapshot = router.stats_snapshot()
    finally:
        router.close()
    assert {
        (name, tuple(sorted(entry["labels"].items())))
        for name, series in snapshot.items()
        for entry in series
    } == ROUTER_SCHEMA


# ----------------------------------------------------------------------
# /metrics endpoint + obs top rendering (no processes)
# ----------------------------------------------------------------------
def _fetch(url):
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        return resp.status, resp.read().decode("utf-8")


class TestMetricsServer:
    def test_endpoints_serve_metrics_health_overview(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests_completed").inc(7)
        registry.gauge("telemetry.shard_up", shard=0).set(1.0)
        server = MetricsServer(
            metrics=registry.export,
            health=lambda: {"overall": "healthy", "shards": {}},
            overview=lambda: {"overall": "healthy", "n_shards": 1,
                              "shards": {}, "slo": {}},
        )
        with server:
            status, text = _fetch(server.url + "/metrics")
            assert status == 200
            assert "serve.requests_completed 7" in text
            assert 'telemetry.shard_up{shard="0"} 1' in text
            status, body = _fetch(server.url + "/metrics.json")
            assert status == 200
            assert series_sum(json.loads(body), "serve.requests_completed") == 7
            status, body = _fetch(server.url + "/health")
            assert status == 200
            assert json.loads(body)["overall"] == "healthy"
            status, body = _fetch(server.url + "/overview")
            assert json.loads(body)["n_shards"] == 1

    def test_down_fleet_answers_503_and_unknown_404(self):
        server = MetricsServer(
            metrics=lambda: {},
            health=lambda: {"overall": "down"},
        )
        with server:
            with pytest.raises(urllib.error.HTTPError) as e503:
                _fetch(server.url + "/health")
            assert e503.value.code == 503
            with pytest.raises(urllib.error.HTTPError) as e404:
                _fetch(server.url + "/nope")
            assert e404.value.code == 404

    def test_broken_thunk_answers_500(self):
        def boom():
            raise RuntimeError("scrape failed")

        server = MetricsServer(metrics=boom)
        with server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _fetch(server.url + "/metrics")
            assert err.value.code == 500


class TestObsTop:
    OVERVIEW = {
        "overall": "degraded",
        "n_shards": 2,
        "shards": {
            0: {"up": True, "health": "healthy", "generation": 3,
                "n_points": 1000, "requests_completed": 100.0,
                "queue_depth": 2.0, "generation_age_seconds": 1.5,
                "p99_seconds": 0.004, "cpu_seconds": 1.25,
                "scrape_age_seconds": 0.1, "error": None},
            1: {"up": False, "health": "down", "generation": None,
                "n_points": None, "requests_completed": 40.0,
                "queue_depth": 0.0, "generation_age_seconds": 0.0,
                "p99_seconds": 0.0, "cpu_seconds": 0.5,
                "scrape_age_seconds": 7.3, "error": "ShardTimeout"},
        },
        "slo": {
            "point": {"p50": 0.001, "p99": 0.004, "p999": 0.008, "n": 140,
                      "target_latency": 0.05, "target_quantile": 99.0,
                      "burn_rate": 0.25},
        },
    }

    def test_render_shows_health_staleness_and_slo(self):
        frame = render_top(self.OVERVIEW)
        assert "overall degraded" in frame
        assert "healthy" in frame
        assert "DOWN:Shar" in frame  # down marker carries the error
        assert "7.3" in frame  # the stale shard's scrape age
        assert "burn  0.25" in frame
        assert "point" in frame

    def test_qps_from_counter_deltas(self):
        prev = json.loads(json.dumps(self.OVERVIEW))  # deep copy (str keys)
        prev = {
            **prev,
            "shards": {int(k): v for k, v in prev["shards"].items()},
        }
        prev["shards"][0]["requests_completed"] = 50.0
        frame = render_top(self.OVERVIEW, prev=prev, interval=2.0)
        assert "25.0" in frame  # (100 - 50) / 2s
        first = render_top(self.OVERVIEW)  # no prev -> no qps yet
        assert first.count("-") >= 1


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
        router_config=RouterConfig(slo_targets={"point": 5.0, "knn": 5.0}),
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
        assert "slo.p99_seconds" in snapshot
        assert "slo.burn_rate" in snapshot
        kinds = {e["labels"]["kind"] for e in snapshot["slo.p99_seconds"]}
        assert {"point", "window", "knn", "update"} <= kinds
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
