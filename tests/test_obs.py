"""Tests for the observability subsystem (repro.obs: metrics + tracing)."""

import json

import numpy as np
import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_stat,
    series_sum,
)
from repro.obs.report import (
    build_tree,
    load_trace,
    missing_spans,
    phase_totals,
    render_report,
    render_tree,
)
from repro.obs.trace import RING_SIZE, SpanRecord, Tracer, get_tracer, span, traced
from tests.spans import spans_named


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_records_name_duration_attrs(tracer):
    with span("unit.work", n=7):
        pass
    records = spans_named(tracer, "unit.work")
    assert len(records) == 1
    rec = records[0]
    assert rec.attrs == {"n": 7}
    assert rec.duration >= 0.0
    assert rec.parent_id is None


def test_span_nesting_links_parents(tracer):
    with span("outer") as outer:
        with span("inner") as inner:
            with span("leaf"):
                pass
    leaf = spans_named(tracer, "leaf")[0]
    mid = spans_named(tracer, "inner")[0]
    top = spans_named(tracer, "outer")[0]
    assert leaf.parent_id == inner.span_id
    assert mid.parent_id == outer.span_id
    assert top.parent_id is None


def test_span_set_attaches_attrs_in_flight(tracer):
    with span("work", phase="start") as s:
        s.set(result=42)
    rec = spans_named(tracer, "work")[0]
    assert rec.attrs == {"phase": "start", "result": 42}


def test_traced_decorator(tracer):
    @traced("decorated.call", tag="x")
    def double(v):
        return 2 * v

    assert double(21) == 42
    rec = spans_named(tracer, "decorated.call")[0]
    assert rec.attrs == {"tag": "x"}


def test_disabled_span_is_shared_noop():
    t = get_tracer()
    assert not t.enabled
    a = span("anything", n=1)
    b = span("else")
    assert a is b  # the shared no-op: no allocation on the disabled path
    with a as s:
        s.set(ignored=True)  # must be callable and do nothing
    assert t.spans() == []


def test_ring_buffer_caps_retention():
    t = Tracer()
    t.enable()
    for i in range(RING_SIZE + 6):
        with t.span("tick", i=i):
            pass
    kept = t.spans()
    assert len(kept) == RING_SIZE
    assert [r.attrs["i"] for r in kept] == list(range(6, RING_SIZE + 6))


def test_jsonl_sink_streams_spans(tmp_path, tracer):
    path = tmp_path / "trace.jsonl"
    tracer.enable(path=str(path))
    with span("sinked", k=1):
        pass
    tracer.disable()  # flush + close
    lines = [json.loads(l) for l in path.read_text().splitlines() if l.strip()]
    assert [l["name"] for l in lines] == ["sinked"]
    assert lines[0]["attrs"] == {"k": 1}


def test_span_record_round_trips_through_dicts():
    rec = SpanRecord(
        name="x", span_id="1-2", parent_id=None, start=1.0,
        duration=0.5, attrs={"a": 1}, pid=7, thread="main",
    )
    clone = SpanRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert clone.to_dict() == rec.to_dict()


def test_capture_redirects_and_adopt_reparents(tracer):
    with tracer.capture() as captured:
        with tracer.span("worker.root"):
            with tracer.span("worker.child"):
                pass
    assert tracer.spans() == []  # nothing published while capturing
    assert {r.name for r in captured} == {"worker.root", "worker.child"}

    shipped = [r.to_dict() for r in captured]  # what crosses the pickle boundary
    tracer.adopt(shipped, parent_id="parent-span")
    root = spans_named(tracer, "worker.root")[0]
    child = spans_named(tracer, "worker.child")[0]
    assert root.parent_id == "parent-span"
    assert child.parent_id == root.span_id  # intra-batch links preserved


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_bucket_edges():
    h = Histogram(base=1.0, n_buckets=5)
    # Bucket 0 is [0, base]; bucket i covers (base*2**(i-1), base*2**i].
    assert h.bucket_index(0.0) == 0
    assert h.bucket_index(1.0) == 0
    assert h.bucket_index(1.0001) == 1
    assert h.bucket_index(2.0) == 1
    assert h.bucket_index(4.0) == 2
    assert h.bucket_index(8.0) == 3
    # Everything past the last boundary lands in the final bucket.
    assert h.bucket_index(1e9) == 4
    assert h.bucket_bounds(0) == (0.0, 1.0)
    assert h.bucket_bounds(2) == (2.0, 4.0)
    with pytest.raises(IndexError):
        h.bucket_bounds(5)


def test_histogram_stats_and_percentiles():
    h = Histogram(base=1.0, n_buckets=8)
    h.record_many([0.5, 1.5, 3.0, 3.5, 100.0])
    assert h.count == 5
    assert h.max == 100.0
    assert h.mean == pytest.approx(108.5 / 5)
    # Percentiles are the upper bound of the bucket the ranked sample sits
    # in (pessimistic by at most one doubling), never above the max.
    assert h.percentile(50) == 4.0  # 3.0 sits in (2, 4]
    assert h.percentile(99) == 100.0  # (64, 128], capped at the largest sample
    assert Histogram().percentile(99) == 0.0  # empty histogram


def test_histogram_percentile_reports_the_samples_own_bucket():
    """A 20 ms latency sits in (16.4, 32.8] ms: it must not read 65.5 ms
    (the next bucket's bound), and one sample alone reads as itself."""
    h = Histogram()
    h.record(0.020)
    assert h.bucket_bounds(h.bucket_index(0.020)) == (0.016384, 0.032768)
    assert h.percentile(50) == h.percentile(99) == 0.020
    h.record(1.0)  # lifts the max, so the 20 ms rank reads its bucket bound
    assert h.percentile(50) == 0.032768
    assert h.percentile(99) == 1.0
    # Overflow: the last bucket is open-ended, only the max bounds it.
    tail = Histogram(base=1.0, n_buckets=3)
    tail.record_many([1.5, 1e6])
    assert tail.percentile(99) == 1e6


def test_histogram_record_many_matches_the_record_loop():
    """The vectorised path lands every sample in the bucket the reference
    doubling loop picks: bulk values, exact bucket edges, zero, overflow."""
    rng = np.random.default_rng(7)
    for base, n_buckets in ((1e-6, 28), (1.0, 5), (3e-4, 1)):
        edges = [base * 2.0**i for i in range(-3, 41)]
        values = np.concatenate(
            [
                10.0 ** rng.uniform(-8, 3, 20_000),
                [0.0],
                edges,
                np.nextafter(edges, np.inf),
                [base * 2.0**n_buckets * 3, 1e12],
            ]
        )
        loop, many = Histogram(base, n_buckets), Histogram(base, n_buckets)
        for v in values:
            loop.record(float(v))
        many.record_many(values)
        np.testing.assert_array_equal(many.counts, loop.counts)
        assert many.max == loop.max
        assert many.total == pytest.approx(loop.total, rel=1e-9)
        many.record_many([])
        many.record_many(np.empty(0))
        np.testing.assert_array_equal(many.counts, loop.counts)


def test_record_pair_equals_two_record_many_calls():
    """Two histograms filled in one pass over both sample arrays hold the
    bucket counts, total and max two ``record_many`` calls give them, bit
    for bit: bulk values, bucket edges, zero and overflow, at lengths on
    both sides of NumPy's pairwise-summation block."""
    rng = np.random.default_rng(11)
    edges = [1e-6 * 2.0**i for i in range(-3, 31)]
    for n in (1, 7, 128, 129, 1_000, 20_000):
        a = 10.0 ** rng.uniform(-8, 3, n)
        b = 10.0 ** rng.uniform(-8, 3, n)
        b[: min(n, len(edges))] = edges[:n]
        a[0], b[-1] = 0.0, 1e12
        pair = Histogram(), Histogram()
        Histogram.record_pair(*pair, a, b)
        Histogram.record_pair(*pair, a[:0], b[:0])  # empty: records nothing
        for got, values in zip(pair, (a, b)):
            want = Histogram()
            want.record_many(values)
            np.testing.assert_array_equal(got.counts, want.counts)
            assert got.total == want.total
            assert got.max == want.max
    with pytest.raises(ValueError):
        Histogram.record_pair(Histogram(), Histogram(), np.ones(2), np.ones(3))
    with pytest.raises(ValueError):
        Histogram.record_pair(Histogram(), Histogram(1.0), np.ones(2), np.ones(2))


def test_histogram_merge_adds_samples():
    a = Histogram(base=1.0, n_buckets=6)
    b = Histogram(base=1.0, n_buckets=6)
    a.record_many([0.5, 2.0])
    b.record_many([4.0, 9.0])
    a.merge(b)
    assert a.count == 4
    assert a.total == pytest.approx(15.5)
    assert a.max == 9.0
    np.testing.assert_array_equal(
        a.counts, Histogram(base=1.0, n_buckets=6).counts + [1, 1, 1, 0, 1, 0]
    )


def test_histogram_merge_rejects_shape_mismatch():
    a = Histogram(base=1.0, n_buckets=6)
    with pytest.raises(ValueError, match="merge"):
        a.merge(Histogram(base=2.0, n_buckets=6))
    with pytest.raises(ValueError, match="merge"):
        a.merge(Histogram(base=1.0, n_buckets=7))


def test_histogram_validates_construction():
    with pytest.raises(ValueError, match="base"):
        Histogram(base=0.0)
    with pytest.raises(ValueError, match="n_buckets"):
        Histogram(n_buckets=0)


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
def test_registry_get_or_create_identity():
    r = MetricsRegistry()
    c1 = r.counter("reqs", kind="point")
    c2 = r.counter("reqs", kind="point")
    c3 = r.counter("reqs", kind="window")
    assert c1 is c2
    assert c1 is not c3
    c1.inc(3)
    assert r.counter("reqs", kind="point").value == 3


def test_registry_rejects_kind_and_shape_mismatch():
    r = MetricsRegistry()
    r.counter("thing")
    with pytest.raises(ValueError, match="already registered"):
        r.gauge("thing")
    r.histogram("lat", base=1e-6, n_buckets=28)
    with pytest.raises(ValueError, match="already registered"):
        r.histogram("lat", base=1.0, n_buckets=28)


def test_counter_rejects_negative_increment():
    c = Counter()
    with pytest.raises(ValueError, match="only go up"):
        c.inc(-1)


def test_gauge_moves_both_ways():
    g = Gauge()
    g.set(5)
    g.inc(2)
    g.inc(-3)
    assert g.value == 4.0


def test_registry_export_formats():
    r = MetricsRegistry()
    r.counter("jobs", backend="thread").inc(4)
    r.gauge("depth").set(2)
    r.histogram("lat", base=1.0, n_buckets=4).record(3.0)
    dump = r.export()
    assert dump["jobs"] == [
        {"labels": {"backend": "thread"}, "kind": "counter", "value": 4.0}
    ]
    assert series_sum(dump, "depth") == 2.0
    assert histogram_stat(dump, "lat", "count") == 1
    assert json.loads(json.dumps(dump))["depth"][0]["kind"] == "gauge"


def test_export_readers():
    """``series_sum`` / ``histogram_stat`` are how an export is read: an
    absent name is 0.0, labels filter, a histogram stat spans series."""
    r = MetricsRegistry()
    r.counter("serve.requests_shed", reason="overloaded").inc(3)
    r.counter("serve.requests_shed", reason="timeout").inc(2)
    r.gauge("telemetry.shard_up", shard=0).set(1.0)
    r.gauge("telemetry.shard_up", shard=1).set(0.0)
    r.histogram("lat", base=1.0, n_buckets=6, kind="point").record_many([0.5, 2.0])
    r.histogram("lat", base=1.0, n_buckets=6, kind="knn").record_many([4.0, 9.0])
    export = json.loads(json.dumps(r.export()))  # as it arrives written to a file
    assert series_sum(export, "no.such.metric") == 0.0
    assert histogram_stat(export, "no.such.metric", "p99") == 0.0
    assert series_sum(export, "serve.requests_shed") == 5.0
    assert series_sum(export, "serve.requests_shed", reason="timeout") == 2.0
    assert series_sum(export, "serve.requests_shed", reason="closed") == 0.0
    assert series_sum(export, "telemetry.shard_up", shard=0) == 1.0  # int label
    assert series_sum(export, "telemetry.shard_up", shard="1") == 0.0
    assert histogram_stat(export, "lat", "count", kind="point") == 2
    assert histogram_stat(export, "lat", "max", kind="point") == 2.0
    # Across both series the buckets add: the stat is the union's.
    assert histogram_stat(export, "lat", "count") == 4
    assert histogram_stat(export, "lat", "total") == pytest.approx(15.5)
    assert histogram_stat(export, "lat", "mean") == pytest.approx(15.5 / 4)
    assert histogram_stat(export, "lat", "p50") == 2.0
    assert histogram_stat(export, "lat", "p99") == 9.0
    assert histogram_stat(export, "lat", "count", kind="window") == 0.0


def test_one_metrics_schema():
    """The registry export is the one stats schema, ``Histogram`` the one
    bucket code, the router's ``stats_snapshot`` the one fleet scrape — checked the way
    ``test_one_keyed_run`` checks the indices: by what the tree contains."""
    from pathlib import Path

    import repro

    src = Path(repro.__file__).parent
    root = src.parent.parent
    e2e = root / "benchmarks" / "e2e"  # frozen by BENCHMARK.json, reads the export

    def python_files(*tops: Path) -> "list[Path]":
        return [
            path
            for top in tops
            for path in sorted(top.rglob("*.py"))
            if e2e not in path.parents and path != Path(__file__)
        ]

    def sites(paths: "list[Path]", *needles: str) -> "list[str]":
        return sorted(
            {
                path.relative_to(root).as_posix()
                for path in paths
                for line in path.read_text().splitlines()
                if any(needle in line for needle in needles)
            }
        )

    package = python_files(src)
    serve = python_files(src / "serve")
    assert sites(serve, "def snapshot", "LatencyHistogram", "_seconds_snapshot") == []
    # One bucket implementation, one percentile, in what keeps metrics.
    metered = python_files(src / "obs", src / "serve", src / "shard", src / "faults")
    assert sites(metered, "/= 2.0", "np.frexp", "2.0 **") == ["src/repro/obs/metrics.py"]
    # One module reads an export entry's value.
    everything = python_files(src, root / "tests", root / "benchmarks")
    assert sites(everything, '["value"]', '.get("value")') == [
        "src/repro/obs/metrics.py"
    ]
    assert sites(package, 'request("stats"') == ["src/repro/shard/router.py"]
    # One load harness (benchmarks/e2e); what the others were is gone.
    texts = [
        *python_files(src, root / "benchmarks"),
        *sorted((root / "docs").rglob("*.md")),
        *sorted((root / ".github").rglob("*.yml")),
    ]
    assert sites(
        texts,
        "stats_unreachable",
        "run_closed_loop",
        "ServeWorkload",
        "SamplingProfiler",
        "profile_kernels",
    ) == []
    assert not (root / "benchmarks" / "profile_kernels.py").exists()
    assert sites([src / "cli.py"], "repro.serve", "repro.shard") == []
    # One name -> class table for the learned indices.
    from repro.bench import experiments
    from repro.indices import LEARNED_INDICES
    from repro.storage import persist

    assert sorted(LEARNED_INDICES) == ["LISA", "ML", "RSMI", "ZM"]
    assert persist.LEARNED_INDICES is LEARNED_INDICES
    assert experiments.LEARNED_INDICES is LEARNED_INDICES
    assert sites(package, '"ZM":', "ZMIndex, MLIndex") == ["src/repro/indices/__init__.py"]


def test_registry_merge_sums_counters_and_adds_histogram_buckets():
    a, b, fleet = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    a.counter("serve.requests", kind="point").inc(10)
    b.counter("serve.requests", kind="point").inc(5)
    b.counter("serve.requests", kind="knn").inc(2)
    a.histogram("lat", base=1.0, n_buckets=6).record_many([0.5, 2.0])
    b.histogram("lat", base=1.0, n_buckets=6).record_many([4.0, 9.0])
    fleet.merge(a.export())
    fleet.merge(b.export())
    assert fleet.counter("serve.requests", kind="point").value == 15
    assert fleet.counter("serve.requests", kind="knn").value == 2
    merged = fleet.histogram("lat", base=1.0, n_buckets=6)
    assert merged.count == 4
    assert merged.total == pytest.approx(15.5)
    assert merged.max == 9.0
    np.testing.assert_array_equal(merged.counts, [1, 1, 1, 0, 1, 0])
    # The merged p99 is computed over the union of samples — the thing
    # per-server summary snapshots could never provide.
    assert merged.percentile(99) == 9.0  # (8, 16], capped at the max


def test_registry_merge_gauges_keep_newest_stamp():
    a, b, fleet = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    a.gauge("serve.health_state").set(0)
    b.gauge("serve.health_state").set(2)  # set later -> newer stamp
    fleet.merge(b.export())
    fleet.merge(a.export())  # older snapshot merged second must not win
    assert fleet.gauge("serve.health_state").value == 2.0


def test_registry_merge_rejects_summary_only_histograms():
    fleet = MetricsRegistry()
    with pytest.raises(ValueError, match="buckets"):
        fleet.merge(
            {"lat": [{"labels": {}, "kind": "histogram",
                      "value": {"count": 1, "mean": 1.0, "max": 1.0,
                                "p50": 1.0, "p99": 1.0}}]}
        )


def test_registry_merge_roundtrips_through_json():
    a, fleet = MetricsRegistry(), MetricsRegistry()
    a.counter("jobs").inc(3)
    a.gauge("depth").set(7)
    a.histogram("lat", base=1.0, n_buckets=4).record(2.5)
    fleet.merge(json.loads(json.dumps(a.export())))
    assert fleet.counter("jobs").value == 3
    assert fleet.gauge("depth").value == 7.0
    assert fleet.histogram("lat", base=1.0, n_buckets=4).count == 1


# ----------------------------------------------------------------------
# Report (trace loading + rendering)
# ----------------------------------------------------------------------
def _rec(name, span_id, parent_id=None, start=0.0, duration=1.0, **attrs):
    return SpanRecord(
        name=name, span_id=span_id, parent_id=parent_id, start=start,
        duration=duration, attrs=attrs, pid=1, thread="main",
    )


def test_build_tree_orphans_become_roots():
    records = [
        _rec("child", "c", parent_id="gone"),
        _rec("root", "r", start=1.0),
        _rec("kid", "k", parent_id="r", start=2.0),
    ]
    roots, children = build_tree(records)
    assert [r.name for r in roots] == ["child", "root"]
    assert [r.name for r in children["r"]] == ["kid"]


def test_phase_totals_self_time_excludes_children():
    records = [
        _rec("build", "b", duration=1.0),
        _rec("build.train", "t", parent_id="b", duration=0.7),
    ]
    totals = phase_totals(records)
    assert totals["build"]["self_seconds"] == pytest.approx(0.3)
    assert totals["build.train"]["total_seconds"] == pytest.approx(0.7)
    assert totals["build"]["count"] == 1


def test_missing_spans():
    records = [_rec("build", "b"), _rec("query.refine", "q")]
    assert missing_spans(records, ["build", "serve.batch"]) == ["serve.batch"]
    assert missing_spans(records, ["build", "query.refine"]) == []


def test_render_report_mentions_phases_and_attrs():
    records = [
        _rec("build", "b", duration=1.0, index="ZM"),
        _rec("build.train", "t", parent_id="b", duration=0.7, method="SP"),
    ]
    text = render_report(records)
    assert "Per-phase cost breakdown" in text
    assert "Span tree" in text
    assert "build.train" in text
    assert "index=ZM" in text
    tree = render_tree(records, max_depth=1)
    assert "build.train" not in tree  # depth cut honoured


def test_load_trace_round_trip_and_errors(tmp_path):
    good = tmp_path / "trace.jsonl"
    good.write_text(
        json.dumps(_rec("build", "b").to_dict()) + "\n\n"
        + json.dumps(_rec("kid", "k", parent_id="b").to_dict()) + "\n"
    )
    records = load_trace(str(good))
    assert [r.name for r in records] == ["build", "kid"]

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"name": "x"}\nnot json\n')
    with pytest.raises(ValueError, match="malformed span line"):
        load_trace(str(bad))


# ----------------------------------------------------------------------
# Distributed tracing: trace ids, adoption, the atomic JSONL sink
# ----------------------------------------------------------------------
def test_trace_id_root_is_own_id_and_descendants_inherit(tracer):
    with span("outer") as outer:
        with span("inner"):
            pass
    top = spans_named(tracer, "outer")[0]
    mid = spans_named(tracer, "inner")[0]
    assert top.trace_id == top.span_id
    assert mid.trace_id == top.trace_id
    with span("second"):
        pass
    other = spans_named(tracer, "second")[0]
    assert other.trace_id != top.trace_id  # each root starts a new trace


def test_ambient_seeds_parent_and_trace_id(tracer):
    with tracer.ambient("remote-parent", trace_id="remote-trace"):
        with span("seeded"):
            pass
    rec = spans_named(tracer, "seeded")[0]
    assert rec.parent_id == "remote-parent"
    assert rec.trace_id == "remote-trace"


def test_ambient_without_trace_id_uses_parent(tracer):
    with tracer.ambient("remote-parent"):
        with span("seeded"):
            pass
    assert spans_named(tracer, "seeded")[0].trace_id == "remote-parent"


def test_adopt_stamps_trace_id_over_whole_batch(tracer):
    with tracer.capture() as captured:
        with tracer.span("w.root"):
            with tracer.span("w.child"):
                pass
    tracer.adopt(
        [r.to_dict() for r in captured],
        parent_id="caller-span",
        trace_id="caller-trace",
    )
    root = spans_named(tracer, "w.root")[0]
    child = spans_named(tracer, "w.child")[0]
    assert root.parent_id == "caller-span"
    assert root.trace_id == "caller-trace"
    assert child.trace_id == "caller-trace"  # non-roots stamped too


def test_disabled_span_has_no_trace_identity():
    t = get_tracer()
    assert not t.enabled
    with span("anything") as s:
        # The shared no-op carries no ids — the router keys its "skip the
        # cross-process trace context entirely" fast path on exactly this.
        assert s.span_id is None
        assert s.trace_id is None


def test_new_request_ids_are_unique():
    from repro.obs.trace import new_request_id

    ids = {new_request_id() for _ in range(100)}
    assert len(ids) == 100


def test_error_spans_tag_exception_type(tracer):
    with pytest.raises(RuntimeError):
        with span("doomed"):
            raise RuntimeError("boom")
    rec = spans_named(tracer, "doomed")[0]
    assert rec.attrs["error"] == "RuntimeError"


def test_jsonl_sink_concurrent_writers_stay_line_atomic(tmp_path, tracer):
    # Many threads streaming spans into one REPRO_TRACE file must never
    # interleave or truncate each other's lines: the sink writes each
    # record as a single os.write to an O_APPEND fd.
    import threading as _threading

    path = tmp_path / "concurrent.jsonl"
    tracer.enable(path=str(path))
    n_threads, n_spans = 8, 150
    padding = "x" * 200  # fat lines make torn writes easy to catch

    def worker(tid):
        for i in range(n_spans):
            with span("atomic.check", tid=tid, i=i, pad=padding):
                pass

    threads = [
        _threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    tracer.disable()
    lines = path.read_text().splitlines()
    assert len(lines) == n_threads * n_spans
    seen = set()
    for line in lines:
        rec = json.loads(line)  # raises on any torn/interleaved line
        assert rec["name"] == "atomic.check"
        assert rec["attrs"]["pad"] == padding
        seen.add((rec["attrs"]["tid"], rec["attrs"]["i"]))
    assert len(seen) == n_threads * n_spans  # no line lost or duplicated


def test_build_tree_marks_adopted_orphans():
    # An adopted span whose parent fell out of the ring is promoted to a
    # root *and* tagged, so the report distinguishes it from real roots.
    records = [
        _rec("adopted", "a", parent_id="evicted"),
        _rec("root", "r", start=1.0),
    ]
    roots, _children = build_tree(records)
    by_name = {r.name: r for r in roots}
    assert by_name["adopted"].attrs.get("orphan") is True
    assert "orphan" not in by_name["root"].attrs
    assert "orphan=True" in render_report(records)


# ----------------------------------------------------------------------
# MetricsRegistry.merge edge cases (the fleet-fold contract)
# ----------------------------------------------------------------------
def test_registry_merge_disjoint_series_is_union():
    a, b, fleet = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    a.counter("only.a").inc(1)
    b.gauge("only.b").set(2.0)
    fleet.merge(a.export())
    fleet.merge(b.export())
    exported = fleet.export()
    assert set(exported) == {"only.a", "only.b"}
    assert fleet.counter("only.a").value == 1
    assert fleet.gauge("only.b").value == 2.0


def test_registry_merge_gauge_stamp_tie_incoming_wins():
    fleet = MetricsRegistry()
    fleet.merge({"g": [{"labels": {}, "kind": "gauge", "value": 1.0,
                        "updated_at": 100.0}]})
    fleet.merge({"g": [{"labels": {}, "kind": "gauge", "value": 2.0,
                        "updated_at": 100.0}]})
    assert fleet.gauge("g").value == 2.0  # >= : equal stamps take incoming


def test_registry_merge_empty_export_is_identity():
    fleet = MetricsRegistry()
    fleet.counter("kept").inc(3)
    before = fleet.export()
    fleet.merge({})
    fleet.merge(MetricsRegistry().export())
    assert fleet.export() == before


def test_registry_merge_histogram_boundary_mismatch_rejected():
    fleet = MetricsRegistry()
    fleet.histogram("lat", base=1.0, n_buckets=4).record(2.0)
    incoming = MetricsRegistry()
    incoming.histogram("lat", base=2.0, n_buckets=4).record(2.0)
    with pytest.raises(ValueError, match="base"):
        fleet.merge(incoming.export())
    wider = MetricsRegistry()
    wider.histogram("lat", base=1.0, n_buckets=8).record(2.0)
    with pytest.raises(ValueError, match="n_buckets"):
        fleet.merge(wider.export())
