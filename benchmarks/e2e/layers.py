"""Per-layer replays of the traced pass.

Each function takes a workload after its traced rounds and returns
``{per-layer metric: value}`` for the layers that do work on that workload
(the runner reports 0 for the rest).  A layer is measured from here only:
by timing a call into one of its public functions on the workload's own
inputs, under a ``layer:<name>`` span, or by reading a public stats object.
Counts marked exact in README.md come from ``QueryStats`` / ``BuildStats``
and repeat bit-for-bit for a seed.

``workload.shares`` receives the share of each replayed layer in the
end-to-end figure of the traced rounds (time per operation of the layer over
time per operation of the phase).
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import threading
import time

import numpy as np

from repro import obs
from repro.indices import ZMIndex
from repro.perf.batching import batch_point_membership, batch_window_refine
from repro.serve.server import IndexServer, ServeConfig
from repro.serve.snapshots import SnapshotManager
from repro.serve.wal import WriteAheadLog
from repro.storage.blocks import BlockStore
from repro.storage.persist import load_index, save_index

from workloads import K, METHOD, PIPELINE, SHARD_SERVE_KWARGS, closed_loop, rss_mb

#: Open loop: the gated rate, the rates tried for the SLO step, the limit.
OPEN_RATE = 3_000
SLO_RATES = (1_000, 3_000, 6_000, 9_000)
SLO_P99_MS = 20.0


def once(w, name: str, fn) -> tuple[float, object]:
    """Seconds and result of one call of ``fn`` under a ``layer:`` span."""
    gc.collect()
    gc.disable()
    try:
        with w.rec.span(f"layer:{name}"):
            started = time.perf_counter()
            result = fn()
            return time.perf_counter() - started, result
    finally:
        gc.enable()


def replay(w, name: str, fn, repeat: int = 3) -> float:
    """Median seconds of ``repeat`` calls of ``fn``, each under a span."""
    return statistics.median(once(w, name, fn)[0] for _ in range(repeat))


def seconds_per_op(w, phase: str) -> float:
    """Median seconds per operation of a phase over the traced rounds."""
    return statistics.median(dt / ops for ops, dt in w.samples[phase])


# ---------------------------------------------------------------- shared
def build_budget(w, indices, build_s: float) -> dict:
    """The ``BuildStats`` split of a build that took ``build_s`` seconds, and
    what the split leaves out."""
    stats = [ix.build_stats for ix in indices]
    parts = {
        "indices.prepare_s": sum(s.prepare_seconds for s in stats),
        "core.methods.extra_s": sum(s.extra_seconds for s in stats),
        "ml.train_s": sum(s.train_seconds for s in stats),
        "indices.error_bound_s": sum(s.error_bound_seconds for s in stats),
    }
    out = dict(parts)
    out["build.unattributed_s"] = build_s - sum(parts.values())
    out["core.methods.train_set_size"] = sum(s.train_set_size for s in stats)
    out["indices.n_models"] = sum(s.n_models for s in stats)
    for name, value in out.items():
        if name.endswith("_s"):
            w.shares[f"route.build_s <- {name}"] = value / build_s
    return out


def map_cost(w, indices) -> dict:
    seconds = sum(replay(w, "spatial.map", lambda ix=ix: ix.map(w.data)) for ix in indices)
    return {"spatial.map_ns_per_point": seconds / (len(indices) * len(w.data)) * 1e9}


def persist_cost(w, indices) -> dict:
    directory = w.fresh_dir("persist")
    save_s = load_s = size = 0.0
    for ix in indices:
        path = directory / f"{ix.name}.npz"
        save_s += replay(w, "storage.persist.save", lambda: save_index(ix, path))
        load_s += replay(w, "storage.persist.load", lambda: load_index(path))
        size += path.stat().st_size
    shutil.rmtree(directory, ignore_errors=True)
    return {
        "storage.persist.save_s": save_s,
        "storage.persist.load_s": load_s,
        "storage.snapshot_bytes_per_point": size / (len(indices) * len(w.data)),
    }


def update_processor_cost(w, index) -> dict:
    """Side-list insert cost, what 2 000 pending inserts do to batch point
    lookups, and a rebuild that absorbs them."""
    up = w.elsi.updates(index)
    chunk = w.probes[:8_192]
    pending = w.inserts[:2_000]
    clean = replay(w, "core.update_processor.point_queries", lambda: up.point_queries(chunk))

    def insert_all():
        for p in pending:
            up.insert(p)

    insert_s = replay(w, "core.update_processor.insert", insert_all, repeat=1)
    loaded = replay(w, "core.update_processor.point_queries", lambda: up.point_queries(chunk))
    rebuild_s = replay(w, "core.update_processor.rebuild", up.rebuild, repeat=1)
    return {
        "core.update_processor.insert_us": insert_s / len(pending) * 1e6,
        "core.update_processor.pending_2k_point_slowdown": loaded / clean,
        "core.update_processor.rebuild_s": rebuild_s,
    }


def scan_counts(indices, point, window, knn) -> dict:
    """Exact work counts per query from ``QueryStats``; ``point`` /
    ``window`` / ``knn`` run the workload's queries on one index and return
    the number of result rows (queries, for points)."""
    inv = scanned = queries = 0
    for ix in indices:
        ix.query_stats.reset()
        queries += point(ix)
        inv += ix.query_stats.model_invocations
        scanned += ix.query_stats.points_scanned
    out = {
        "indices.point.model_invocations_per_q": inv / queries,
        "indices.point.points_scanned_per_q": scanned / queries,
    }
    for name, run in (("window", window), ("knn", knn)):
        scanned = rows = 0
        for ix in indices:
            ix.query_stats.reset()
            rows += run(ix)
            scanned += ix.query_stats.points_scanned
        out[f"indices.{name}.scanned_per_result"] = scanned / max(rows, 1)
    out["indices.error_width"] = sum(ix.error_width for ix in indices) / len(indices)
    return out


def rows(results) -> int:
    return sum(len(r) for r in results)


# ------------------------------------------------------------- workloads
def zm_batch(w) -> dict:
    index, store = w.index, w.index.store
    out = {"data.generate_s": w.generate_s}
    out.update(build_budget(w, [index], w.last_seconds["build"]))
    out.update(map_cost(w, [index]))
    out.update(scan_counts(
        [index],
        point=lambda ix: len(ix.point_queries(w.probes)),
        window=lambda ix: rows(ix.window_queries(w.windows)),
        knn=lambda ix: rows(ix.knn_queries(w.knn_queries, K)),
    ))
    # The kernels of one point batch call and one window batch call.
    chunk = w.probes[: w.scale.point_call]
    keys = index.map(chunk)
    lo, hi = index.model.search_ranges(keys)
    per_probe = lambda s: s / len(chunk) * 1e9  # noqa: E731
    out["perf.fused_infer.predict_ns_per_key"] = per_probe(
        replay(w, "perf.fused_infer.search_ranges", lambda: index.model.search_ranges(keys)))
    out["perf.searchsorted_ns_per_key"] = per_probe(
        replay(w, "perf.searchsorted", lambda: np.searchsorted(store.keys, keys)))
    out["perf.batching.point_membership_ns_per_probe"] = per_probe(
        replay(w, "perf.batching.point_membership",
               lambda: batch_point_membership(store, lo, hi, keys, chunk)))
    wins = w.windows[: w.scale.window_call]
    win_lo = np.vstack([win.lo_array for win in wins])
    win_hi = np.vstack([win.hi_array for win in wins])
    z = index.map(np.vstack([win_lo, win_hi]))
    w_lo = np.searchsorted(store.keys, z[: len(wins)], side="left")
    w_hi = np.searchsorted(store.keys, z[len(wins):], side="right")
    refine_s = replay(w, "perf.batching.window_refine",
                      lambda: batch_window_refine(store, w_lo, w_hi, win_lo, win_hi))
    out["perf.batching.window_refine_us_per_window"] = refine_s / len(wins) * 1e6
    all_keys = index.map(w.data)
    out["storage.blocks.build_s"] = replay(
        w, "storage.blocks.build",
        lambda: BlockStore(w.data, all_keys, block_size=index.block_size))
    out.update(persist_cost(w, [index]))
    out.update(update_processor_cost(w, index))

    point_ns = seconds_per_op(w, "point") * 1e9
    for name in ("spatial.map_ns_per_point", "perf.fused_infer.predict_ns_per_key",
                 "perf.batching.point_membership_ns_per_probe"):
        w.shares[f"point_qps <- {name}"] = out[name] / point_ns
    w.shares["window_qps <- perf.batching.window_refine_us_per_window"] = (
        out["perf.batching.window_refine_us_per_window"] / (seconds_per_op(w, "window") * 1e6))
    w.shares["route.insert_qps <- core.update_processor.insert_us"] = (
        out["core.update_processor.insert_us"] / (seconds_per_op(w, "insert") * 1e6))
    return out


def four_idx(w) -> dict:
    out = {"data.generate_s": w.generate_s}
    # The built-in inserts of the last round changed its indices: build anew.
    build_s, indices = once(
        w, "build", lambda: [w.elsi.build(c, w.data, method=METHOD) for c in w.classes])
    out.update(build_budget(w, indices, build_s))
    out.update(map_cost(w, indices))
    out.update(scan_counts(
        indices,
        point=lambda ix: len([ix.point_query(p) for p in w.probes]),
        window=lambda ix: rows(ix.window_query(win) for win in w.windows),
        knn=lambda ix: rows(ix.knn_query(q, K) for q in w.knn_queries),
    ))
    zm = indices[0]
    keys = zm.map(w.data)
    out["storage.blocks.build_s"] = replay(
        w, "storage.blocks.build", lambda: BlockStore(w.data, keys, block_size=zm.block_size))
    out.update(persist_cost(w, indices))
    return out


def make_mixed(server, w, count: int, rng) -> list:
    """80/10/10 point/kNN/window requests as ``(submit, payload)`` pairs."""
    draws = rng.random(count)
    picks = rng.integers(0, 1 << 30, count)
    knn = lambda q: server.submit_knn(q, K)  # noqa: E731
    items = []
    for draw, pick in zip(draws, picks):
        if draw < 0.8:
            items.append((server.submit_point, w.probe_list[pick % len(w.probe_list)]))
        elif draw < 0.9:
            items.append((knn, w.knn_list[pick % len(w.knn_list)]))
        else:
            items.append((server.submit_window, w.windows[pick % len(w.windows)]))
    return items


def submit_mixed(item):
    return item[0](item[1])


def open_loop(w, items, rate: float) -> dict:
    """Send on a schedule whatever the server does; latency counts from the
    time each request was *due*, so a stall charges the requests behind it."""
    n = len(items)
    w.tally.ops(n)
    interval = 1.0 / rate
    replies: list = [None] * n
    late = 0.0
    first_due = time.perf_counter() + 0.01
    for i in range(n):
        due = first_due + i * interval
        now = time.perf_counter()
        while now < due:
            gap = due - now
            time.sleep(gap - 1e-4 if gap > 3e-4 else 0)  # sleep(0) yields the GIL
            now = time.perf_counter()
        late = max(late, now - due)
        try:
            replies[i] = submit_mixed(items[i])
        except Exception as exc:  # noqa: BLE001 - a refusal misses the limit
            w.tally.fail(f"open loop at {rate}/s refused: {type(exc).__name__}")
    latencies, failures = [], 0
    for i, reply in enumerate(replies):
        try:
            if reply is None:
                raise RuntimeError("refused")
            reply.wait(30.0)
            latencies.append(reply.completed_at - (first_due + i * interval))
        except Exception as exc:  # noqa: BLE001
            failures += 1
            if reply is not None:
                w.tally.fail(f"open loop at {rate}/s failed: {type(exc).__name__}")
    return {"latencies": latencies, "late_s": late, "failures": failures}


def within_slo(run: dict) -> bool:
    lat = np.asarray(run["latencies"]) * 1e3
    tail = lat[-max(len(lat) // 10, 1):]
    return (run["failures"] == 0 and np.percentile(lat, 99) <= SLO_P99_MS
            and np.median(tail) <= SLO_P99_MS)  # a growing backlog shows in the tail


def serve(w) -> dict:
    s = w.scale
    light = 8 if w.is_smoke else 1
    rng = np.random.default_rng([w.seed, 3])
    w.probe_list, w.knn_list = list(w.probes), list(w.knn_queries)
    out = {"data.generate_s": w.generate_s}
    directory = w.fresh_dir("serve-layers")
    open_s, server = once(w, "serve.open_server", lambda: w.open_server(directory))
    recovered = None
    try:
        index = server.index
        out.update(build_budget(w, [index], open_s))
        out.update(map_cost(w, [index]))
        tally = w.tally

        # Closed loop, points: served rate, batch sizes, submit cost.
        stats = server.stats
        batches0, batched0 = stats.batches, stats.batched_requests
        started = time.perf_counter()
        with w.rec.span("layer:serve.closed_loop_point"):
            closed_loop(server.submit_point, w.probe_list, tally)
        served_us = (time.perf_counter() - started) / len(w.probe_list) * 1e6
        tally.ops(len(w.probe_list))
        out["serve.mean_batch_size"] = (
            (stats.batched_requests - batched0) / max(stats.batches - batches0, 1))
        submit_s = []
        for lo in range(0, len(w.probe_list), PIPELINE):
            flight = w.probe_list[lo : lo + PIPELINE]
            started = time.perf_counter()
            replies = [server.submit_point(p) for p in flight]
            submit_s.append((time.perf_counter() - started) / len(flight))
            for reply in replies:
                reply.wait(30.0)
        tally.ops(len(w.probe_list))
        out["serve.submit_us"] = statistics.median(submit_s) * 1e6
        direct = w.elsi.updates(index)
        direct_s = replay(
            w, "core.update_processor.point_queries_128",
            lambda: [direct.point_queries(w.probes[lo : lo + PIPELINE])
                     for lo in range(0, len(w.probes), PIPELINE)])
        out["serve.overhead_us_per_req"] = served_us - direct_s / len(w.probes) * 1e6
        w.shares["point_qps <- serve.overhead_us_per_req"] = (
            out["serve.overhead_us_per_req"] / served_us)
        w.shares["point_qps <- serve.submit_us"] = out["serve.submit_us"] / served_us

        # Mixed closed loop, open loop at the fixed rate, the SLO step.
        mixed = make_mixed(server, w, 16_384 // light, rng)
        tally.ops(len(mixed))
        started = time.perf_counter()
        with w.rec.span("layer:serve.closed_loop_mixed"):
            closed_loop(submit_mixed, mixed, tally)
        out["serve.mixed_qps"] = len(mixed) / (time.perf_counter() - started)
        pooled, late = [], 0.0
        for _ in range(2):
            with w.rec.span("layer:serve.open_loop", rate=OPEN_RATE):
                run = open_loop(w, mixed[: 6_000 // light], OPEN_RATE)
            pooled.extend(run["latencies"])
            late = max(late, run["late_s"])
        out["serve.open_p50_ms"] = float(np.percentile(pooled, 50)) * 1e3
        out["serve.open_p99_ms"] = float(np.percentile(pooled, 99)) * 1e3
        out["serve.open_late_ms_max"] = late * 1e3
        best = 0
        for rate in SLO_RATES:
            with w.rec.span("layer:serve.open_loop", rate=rate):
                run = open_loop(w, mixed[: rate // light], rate)
            if within_slo(run):
                best = rate
        out["serve.open_max_rate_in_slo"] = best

        # Writes beside reads: 128 pipelined reads, 16 synchronous inserts.
        cycles = min(len(mixed) // PIPELINE, len(w.inserts) // 16)
        tally.ops(cycles * (PIPELINE + 16))
        started = time.perf_counter()
        with w.rec.span("layer:serve.read_write"):
            for c in range(cycles):
                closed_loop(submit_mixed, mixed[c * PIPELINE : (c + 1) * PIPELINE], tally)
                for p in w.inserts[c * 16 : (c + 1) * 16]:
                    server.insert(p)
        out["serve.rw_read_qps"] = cycles * PIPELINE / (time.perf_counter() - started)
        acknowledged = w.inserts[: cycles * 16]

        out.update(update_processor_cost(w, index))
        w.shares["route.insert_qps <- core.update_processor.insert_us"] = (
            out["core.update_processor.insert_us"] / (seconds_per_op(w, "insert") * 1e6))
        out.update(wal_cost(w))
        out.update(snapshot_cost(w, index))

        # Bulk inserts give the WAL a tail; recover from a copy of the state.
        rest = w.inserts[len(acknowledged):]
        tally.ops(len(rest))
        for p in rest:
            server.insert(p)
        acknowledged = w.inserts
        copy = w.statedir / "serve-recover"
        shutil.copytree(directory, copy)

        def recover():
            fresh = IndexServer.from_snapshot(
                str(copy), wal=True, config=w.serve_config, elsi_config=w.config,
                index_factory=lambda: ZMIndex(builder=w.elsi.builder(method=METHOD)),
            ).start()
            if not fresh.point_query(w.data[0]):
                tally.fail("first answer after recovery is wrong", wrong=True)
            return fresh

        tally.ops(1)
        out["serve.recover_s"], recovered = once(w, "serve.recover", recover)
        w.check_inserts_found(
            "after recovery", recovered.submit_point_batch(acknowledged).wait(60.0))
        recovered.close()
        recovered = None

        # Rebuild: quiet, then with the client reading (a third thread).
        tally.ops(2)
        out["serve.rebuild_s"] = replay(w, "serve.rebuild_now", server.rebuild_now, repeat=1)
        w.check_inserts_found(
            "after rebuild swap", server.submit_point_batch(acknowledged).wait(60.0))
        worker = threading.Thread(target=server.rebuild_now)
        reads, started = 0, time.perf_counter()
        with w.rec.span("layer:serve.reads_during_rebuild"):
            worker.start()
            while worker.is_alive():
                lo = reads % (len(mixed) - PIPELINE)
                closed_loop(submit_mixed, mixed[lo : lo + PIPELINE], tally)
                reads += PIPELINE
            worker.join()
        tally.ops(reads)
        out["serve.read_qps_during_rebuild"] = reads / (time.perf_counter() - started)

        # The program's own tracer, on against off.
        some = w.probe_list[: max(len(w.probe_list) // 2, PIPELINE)]

        def points_s() -> float:
            begun = time.perf_counter()
            closed_loop(server.submit_point, some, tally)
            return time.perf_counter() - begun

        off, on = [], []
        for _ in range(2):
            off.append(points_s())
            obs.enable()
            try:
                on.append(points_s())
            finally:
                obs.disable()
                obs.get_tracer().reset()
        tally.ops(4 * len(some))
        out["obs.enabled_overhead_frac"] = statistics.median(on) / statistics.median(off) - 1.0
    finally:
        if recovered is not None:
            recovered.close()
        server.close()
        shutil.rmtree(directory, ignore_errors=True)
    out["serve.peak_rss_mb"] = rss_mb()
    return out


def wal_cost(w) -> dict:
    """Append without fsync (the program's write path), with fsync on every
    append (adds this checkout's disk), and replay."""
    point = w.inserts[0]
    directory = w.fresh_dir("wal")
    out = {}
    records = 5_000 if not w.is_smoke else 500
    for metric, policy, count in (("serve.wal.append_us", "off", records),
                                  ("serve.wal.append_us_fsync", "always", records // 20)):
        with WriteAheadLog(directory / policy, fsync_policy=policy) as log:
            def append_all():
                for _ in range(count):
                    log.append("insert", point)
            out[metric] = replay(w, metric, append_all, repeat=1) / count * 1e6
    replay_s = replay(w, "serve.wal.replay_dir",
                      lambda: WriteAheadLog.replay_dir(directory / "off"))
    out["serve.wal.replay_records_per_s"] = records / replay_s
    shutil.rmtree(directory, ignore_errors=True)
    return out


def snapshot_cost(w, index) -> dict:
    directory = w.fresh_dir("snapshots")
    manager = SnapshotManager(directory)
    out = {
        "serve.snapshots.save_s": replay(w, "serve.snapshots.save", lambda: manager.save(index, 0)),
        "serve.snapshots.load_s": replay(w, "serve.snapshots.load", manager.load),
        "storage.snapshot_bytes_per_point": manager.path_for(0).stat().st_size / len(w.data),
    }
    shutil.rmtree(directory, ignore_errors=True)
    return out


def shard(w) -> dict:
    out = {"data.generate_s": w.generate_s}
    directory = w.fresh_dir("shard-layers")
    with w.rec.span("layer:shard.build_cluster"):
        router = w.open_cluster(directory)
    baseline = None
    try:
        chunk = w.probes[: w.scale.point_call]
        route_s = replay(w, "shard.shardmap.shard_of_points",
                         lambda: router.shard_map.shard_of_points(chunk))
        out["shard.shardmap.route_ns_per_point"] = route_s / len(chunk) * 1e9
        pings = 100 if w.is_smoke else 500

        def ping():
            for _ in range(pings):
                router.handles[0].request("status")

        out["shard.rpc_roundtrip_us"] = replay(w, "shard.rpc_status", ping, repeat=1) / pings * 1e6
        out["shard.window_fanout"] = statistics.fmean(
            len(router.shard_map.shards_for_window(win)) for win in w.windows)

        def cpu_seconds() -> float:
            return sum(e["value"] for e in router.stats_snapshot()["worker.cpu_seconds"])

        round2 = router.registry.counter("router.knn_round2")
        round2_before, cpu_before = round2.value, cpu_seconds()
        started = time.perf_counter()
        routed_s = replay(w, "shard.router.point_queries", lambda: router.point_queries(chunk))
        replay(w, "shard.router.window_queries",
               lambda: router.window_queries(w.windows[: w.scale.window_call]), repeat=1)
        replay(w, "shard.router.knn_queries",
               lambda: router.knn_queries(w.knn_queries, K), repeat=1)
        wall = time.perf_counter() - started
        out["shard.cpu_vs_wall"] = (cpu_seconds() - cpu_before) / wall
        out["shard.knn_round2_frac"] = (round2.value - round2_before) / len(w.knn_queries)

        # The same probes as one in-process batch request, no router, no pipe.
        index = w.elsi.build(ZMIndex, w.data, method=METHOD)
        baseline = IndexServer(index, ServeConfig(**SHARD_SERVE_KWARGS),
                               elsi_config=w.config).start()
        local_s = replay(w, "serve.submit_point_batch",
                         lambda: baseline.submit_point_batch(chunk).wait(60.0))
        out["shard.point_overhead_us_per_probe"] = (routed_s - local_s) / len(chunk) * 1e6
        w.shares["point_qps <- shard.point_overhead_us_per_probe"] = (
            (routed_s - local_s) / len(chunk) / seconds_per_op(w, "point"))
        w.shares["route.insert_qps <- shard.rpc_roundtrip_us"] = (
            out["shard.rpc_roundtrip_us"] / (seconds_per_op(w, "insert") * 1e6))
    finally:
        if baseline is not None:
            baseline.close()
        router.close()
        shutil.rmtree(directory, ignore_errors=True)
    # Workers are reaped by now; RUSAGE_CHILDREN holds the largest of them.
    out["shard.peak_rss_mb_total"] = rss_mb() + w.n_shards * rss_mb(resource.RUSAGE_CHILDREN)
    return out


REPLAYS = {
    "zm_batch_300k": zm_batch,
    "four_idx_scalar_20k": four_idx,
    "serve_zm_200k": serve,
    "shard2_zm_200k": shard,
}
