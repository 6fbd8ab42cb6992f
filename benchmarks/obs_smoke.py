"""Observability smoke: a tiny traced build + query + serve + rebuild run.

Run with the trace sink enabled::

    REPRO_TRACE=obs_trace.jsonl PYTHONPATH=src python benchmarks/obs_smoke.py

Exercises every instrumented path — ELSI build (method selection, training
set, FFN training, error bounds), batch point/window/knn queries, a
serve session with a generation rebuild, and a 2-shard
cluster answering a mixed batch with cross-process trace propagation —
then checks both metrics exports through the export readers
(``repro.obs.metrics.series_sum`` / ``histogram_stat``), and writes the
server's to ``obs_metrics.json`` and the router's merged
``stats_snapshot()`` to ``obs_fleet_metrics.json``.  CI renders the
trace with ``python -m repro obs report`` and asserts the
acceptance-criteria spans are present — including the adopted-from-worker
``serve.dispatch`` children under ``shard.scatter`` via
``--require-cross`` (see ``.github/workflows/ci.yml``).
"""

import json
import os
import sys

import numpy as np

from repro.core.config import ELSIConfig
from repro.core.elsi import ELSI
from repro.indices.zm import ZMIndex
from repro.obs.metrics import histogram_stat, series_sum
from repro.serve.server import IndexServer
from repro.spatial.rect import Rect

N_POINTS = 3_000


def main() -> int:
    if not os.environ.get("REPRO_TRACE"):
        print("warning: REPRO_TRACE is not set; no trace file will be written")

    rng = np.random.default_rng(0)
    pts = rng.random((N_POINTS, 2))
    elsi = ELSI(ELSIConfig(lam=0.5, train_epochs=80))

    index = elsi.build(ZMIndex, pts)
    index.point_queries(pts[:128])
    index.window_queries(
        [Rect((0.1, 0.1), (0.2, 0.2)), Rect((0.4, 0.4), (0.6, 0.6))]
    )
    index.knn_queries(pts[:8], 5)

    # The level-wise RSMI build: one rsmi.fit_level span per tree level,
    # its nodes' build.train spans under it, plus a traced point lookup, the
    # shared-DFS window walk and expanding-window kNN riding on it (under
    # the query.point_batch / query.window_batch spans every index emits).
    from repro.indices.rsmi import RSMIIndex

    rsmi = RSMIIndex(builder=elsi.builder(), leaf_capacity=500).build(pts)
    rsmi.point_query(pts[0])
    rsmi.window_queries([Rect((0.1, 0.1), (0.25, 0.25)), Rect((0.6, 0.6), (0.8, 0.8))])
    rsmi.knn_queries(pts[:4], 3)

    server = IndexServer(index, index_factory=lambda: ZMIndex(builder=elsi.builder()))
    with server:
        replies = [server.submit_point(p) for p in pts[:32]]
        window_reply = server.submit_window(Rect((0.2, 0.2), (0.35, 0.35)))
        for reply in replies:
            reply.wait(30)
        window_reply.wait(30)
        server.insert(np.array([0.42, 0.42]))
        server.rebuild_now()
        metrics = server.stats_snapshot()
    assert series_sum(metrics, "serve.requests_completed") == 33
    assert histogram_stat(metrics, "serve.request_latency_seconds", "count") == 33
    assert series_sum(metrics, "serve.rebuilds") == 1

    # Sharded tier: a 2-shard cluster answering a mixed point/window/kNN
    # batch.  Every scatter carries the trace context, so the workers'
    # serve.dispatch spans come back adopted under shard.scatter — the
    # cross-process tree the CI --require-cross assertion keys on.
    import tempfile

    from repro.shard import build_cluster

    with tempfile.TemporaryDirectory(prefix="obs-smoke-shard-") as tmp:
        router = build_cluster(
            pts,
            os.path.join(tmp, "cluster"),
            n_shards=2,
            elsi={"train_epochs": 30, "seed": 0},
            serve={"max_wait_seconds": 0.0},
        )
        with router:
            hits = router.point_queries(pts[:256])
            assert bool(hits.all()), "sharded point misses on member points"
            router.window_queries(
                [Rect((0.1, 0.1), (0.3, 0.3)), Rect((0.5, 0.5), (0.9, 0.9))]
            )
            router.knn_queries(pts[:8], 5)
            router.insert(np.array([0.17, 0.83]))
            fleet_stats = router.stats_snapshot()
        assert series_sum(fleet_stats, "serve.requests_completed") > 0
        assert series_sum(fleet_stats, "worker.cpu_seconds") > 0
        for shard in (0, 1):
            assert series_sum(fleet_stats, "telemetry.shard_up", shard=shard) == 1

    with open("obs_fleet_metrics.json", "w") as fh:
        json.dump(fleet_stats, fh, indent=2, sort_keys=True)
    print(f"wrote obs_fleet_metrics.json ({len(fleet_stats)} metric families)")
    with open("obs_metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
    print(f"wrote obs_metrics.json ({len(metrics)} metric families)")
    trace_path = os.environ.get("REPRO_TRACE")
    if trace_path and os.path.exists(trace_path):
        with open(trace_path) as fh:
            n_spans = sum(1 for line in fh if line.strip())
        print(f"wrote {trace_path} ({n_spans} spans)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
