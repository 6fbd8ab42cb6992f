"""Ablation — RMI stage-2 branching in the ZM/ML base indices.

A design choice DESIGN.md calls out: a single global model has one pair of
worst-case error bounds, so skewed key CDFs force wide scans; stage-2
models localise the bounds.  This benchmark quantifies the scan-cost /
build-time trade-off that justified the repo's default of branching = 8.
"""

from repro.bench.harness import format_table, timed
from repro.core import ELSIModelBuilder
from repro.indices import ZMIndex


def test_ablation_rmi_branching(ctx):
    points = ctx.dataset("OSM1")
    sample = points[:: max(1, len(points) // ctx.scale.n_point_queries)]

    rows = []
    for branching in (1, 2, 4, 8, 16):
        builder = ELSIModelBuilder(ctx.config, method="SP")
        index = ZMIndex(builder=builder, branching=branching)
        _, build_seconds = timed(lambda: index.build(points))
        index.query_stats.reset()
        for p in sample:
            index.point_query(p)
        rows.append(
            {
                "branching": branching,
                "build_seconds": build_seconds,
                "models": index.build_stats.n_models,
                "avg_scan": index.query_stats.points_scanned / len(sample),
            }
        )

    print()
    print(format_table(
        ["branching", "build (s)", "models", "avg points scanned / query"],
        [
            [r["branching"], f"{r['build_seconds']:.3f}", r["models"], f"{r['avg_scan']:.0f}"]
            for r in rows
        ],
        title="Ablation: RMI branching (ZM + SP on OSM1)",
    ))

    by = {r["branching"]: r for r in rows}
    # More stage-2 models -> tighter local bounds -> smaller scans.
    assert by[8]["avg_scan"] < by[1]["avg_scan"]
    # ... at a bounded build-time cost (more models to train).
    assert by[8]["build_seconds"] < 20 * by[1]["build_seconds"] + 1.0
