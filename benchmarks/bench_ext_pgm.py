"""Extension — theoretical error bounds, measured.

Section IV-A notes that PGM-style piecewise-linear CDFs allow provable
bounds: the PGM builder's constructed bounds vs the FFN builder's
empirical bounds — scan width and build time.
"""

from repro.bench.harness import format_table, timed
from repro.core import ELSIModelBuilder
from repro.indices import PGMBuilder, ZMIndex


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