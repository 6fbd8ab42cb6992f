"""Extensions — the paper's future work, measured.

1. *Flood support* (conclusion: "extend ELSI to support query-aware learned
   indices such as Flood"): ELSI accelerates Flood's per-column model
   builds the same way it does the four base indices, without hurting its
   exact window queries.

2. *Theoretical error bounds* (Section IV-A: PGM-style piecewise-linear
   CDFs allow provable bounds): the PGM builder's constructed bounds vs the
   FFN builder's empirical bounds — scan width and build time.
"""

import numpy as np

from repro.bench.harness import format_table, timed
from repro.core import ELSIModelBuilder
from repro.indices import FloodIndex, PGMBuilder, ZMIndex
from repro.queries.evaluate import brute_force_window, window_recall
from repro.queries.workload import window_workload


def test_ext_flood_with_elsi(ctx):
    points = ctx.dataset("OSM1")
    queries = window_workload(points, ctx.scale.n_window_queries, 1e-3, seed=ctx.seed)

    rows = []
    for label, method in (("Flood (OG)", "OG"), ("Flood-F (SP)", "SP"), ("Flood-F (RS)", "RS")):
        builder = ELSIModelBuilder(ctx.config, method=method)
        index = FloodIndex.tune(points, [q.window for q in queries[:20]], builder=builder)
        _, build_seconds = timed(lambda: index.build(points))
        recalls = [
            window_recall(q.run(index), brute_force_window(points, q.window))
            for q in queries[:30]
        ]
        rows.append(
            {
                "label": label,
                "columns": index.n_columns,
                "build_seconds": build_seconds,
                "recall": float(np.mean(recalls)),
            }
        )
    print()
    print(format_table(
        ["config", "columns", "build (s)", "window recall"],
        [[r["label"], r["columns"], f"{r['build_seconds']:.3f}", f"{r['recall']:.3f}"] for r in rows],
        title="Extension: ELSI on the query-aware Flood index",
    ))
    by = {r["label"]: r for r in rows}
    assert by["Flood-F (SP)"]["build_seconds"] < by["Flood (OG)"]["build_seconds"]
    for r in rows:
        assert r["recall"] == 1.0  # Flood windows are exact


def test_ext_pgm_bounds(ctx):
    points = ctx.dataset("OSM1")
    sample = points[:: max(1, len(points) // ctx.scale.n_point_queries)]

    rows = []
    configs = [
        ("FFN (empirical)", ELSIModelBuilder(ctx.config, method="OG")),
        ("PGM eps=64", PGMBuilder(epsilon_positions=64)),
        ("PGM eps=16", PGMBuilder(epsilon_positions=16)),
    ]
    for label, builder in configs:
        index = ZMIndex(builder=builder)
        _, build_seconds = timed(lambda: index.build(points))
        index.query_stats.reset()
        hits = sum(index.point_query(p) for p in sample)
        rows.append(
            {
                "label": label,
                "build_seconds": build_seconds,
                "error_width": index.error_width,
                "avg_scan": index.query_stats.points_scanned / len(sample),
                "hits": hits,
                "n_queries": len(sample),
            }
        )
    print()
    print(format_table(
        ["model", "build (s)", "|Error|", "avg scan", "found"],
        [
            [r["label"], f"{r['build_seconds']:.3f}", r["error_width"],
             f"{r['avg_scan']:.0f}", f"{r['hits']}/{r['n_queries']}"]
            for r in rows
        ],
        title="Extension: provable PGM bounds vs empirical FFN bounds (ZM)",
    ))
    by = {r["label"]: r for r in rows}
    for r in rows:
        assert r["hits"] == r["n_queries"]  # correctness everywhere
    # PGM's guaranteed bounds are far tighter than the FFN's empirical
    # worst case, and the PLA builds faster than 500-epoch training.
    assert by["PGM eps=16"]["error_width"] < by["FFN (empirical)"]["error_width"]
    assert by["PGM eps=16"]["build_seconds"] < by["FFN (empirical)"]["build_seconds"]