"""Selector-grid + ML-kNN perf microbenchmark (the serial-hot-loop PR).

Measures the three loops this PR moved onto the perf subsystem:

1. ``collect_selector_data`` over the (n, dist) grid — serial vs. the
   ``process:4`` MapExecutor dispatch.  Parity is checked with a hash over
   the deterministic record fields (n, dist_u, method names); speedups are
   wall-clock and therefore excluded from the hash.
2. ML-Index kNN — 256 per-query calls (batches of one) vs. one
   ``knn_queries`` batch of 256 (equal answers asserted).
3. RSMI build — the level-wise frontier build, timed (its parity with a
   depth-first recursion is a test, ``tests/test_rsmi_build.py``).

Run from the repo root (scale via ``REPRO_SCALE=smoke|default``):

    PYTHONPATH=src REPRO_SCALE=smoke python benchmarks/bench_selector_grid.py

Thread/process speedups reflect the host's core count: on a single-core CI
runner the grid dispatch can only break even (workers time-slice one core),
while the batched kNN win is algorithmic and holds everywhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time

import numpy as np

from repro.bench.harness import ExperimentScale
from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.selector import collect_selector_data
from repro.indices import MLIndex, RSMIIndex, ZMIndex

GRID_BACKENDS = ("serial", "thread:4", "process:4")
KNN_BATCH = 256
KNN_K = 10


def _zm_factory(builder):
    """Module-level so the process backend can pickle it."""
    return ZMIndex(builder=builder, branching=1)


def _grid_hash(records) -> str:
    """Digest of the deterministic grid fields (speedups are wall-clock)."""
    digest = hashlib.sha256()
    for r in records:
        digest.update(f"{r.n}:{r.dist_u:.12f}:{','.join(sorted(r.speedups))};".encode())
    return digest.hexdigest()[:16]


def bench_grid(scale: ExperimentScale) -> list[dict]:
    config = ELSIConfig(train_epochs=scale.train_epochs)
    kwargs = dict(
        config=config,
        cardinalities=scale.selector_cardinalities,
        deltas=scale.selector_deltas,
        n_queries=scale.n_point_queries,
    )
    records = []
    serial_seconds = None
    serial_hash = None
    for backend in GRID_BACKENDS:
        try:
            started = time.perf_counter()
            grid = collect_selector_data(_zm_factory, executor=backend, **kwargs)
            seconds = time.perf_counter() - started
        except Exception as exc:  # e.g. process pools unavailable in a sandbox
            records.append(
                {
                    "op": "selector_grid",
                    "n": len(scale.selector_cardinalities) * len(scale.selector_deltas),
                    "backend": backend,
                    "seconds": None,
                    "speedup": None,
                    "error": str(exc),
                }
            )
            continue
        grid_hash = _grid_hash(grid)
        if backend == "serial":
            serial_seconds, serial_hash = seconds, grid_hash
        elif grid_hash != serial_hash:
            raise AssertionError(
                f"{backend}: grid digest {grid_hash} != serial {serial_hash}"
            )
        records.append(
            {
                "op": "selector_grid",
                "n": len(grid),
                "backend": backend,
                "seconds": seconds,
                "speedup": serial_seconds / seconds,
                "parity_hash": grid_hash,
            }
        )
    return records


def bench_ml_knn(points: np.ndarray, scale: ExperimentScale) -> list[dict]:
    config = ELSIConfig(train_epochs=scale.train_epochs)
    index = MLIndex(builder=ELSIModelBuilder(config, method="SP")).build(points)
    rng = np.random.default_rng(11)
    batch = np.vstack(
        [
            points[rng.integers(0, len(points), size=KNN_BATCH // 2)],
            rng.random((KNN_BATCH // 2, 2)),
        ]
    )
    started = time.perf_counter()
    loop = [index.knn_query(q, KNN_K) for q in batch]
    loop_seconds = time.perf_counter() - started
    started = time.perf_counter()
    batched = index.knn_queries(batch, KNN_K)
    batch_seconds = time.perf_counter() - started
    for a, b in zip(loop, batched):
        if not np.array_equal(a, b):
            raise AssertionError("ML knn_queries answers depend on the batch size")
    return [
        {
            "op": "ml_knn",
            "n": len(batch),
            "backend": "loop",
            "seconds": loop_seconds,
            "speedup": 1.0,
        },
        {
            "op": "ml_knn",
            "n": len(batch),
            "backend": "batch",
            "seconds": batch_seconds,
            "speedup": loop_seconds / batch_seconds,
        },
    ]


def bench_rsmi_build(points: np.ndarray, scale: ExperimentScale) -> list[dict]:
    config = ELSIConfig(train_epochs=scale.train_epochs)
    index = RSMIIndex(
        builder=ELSIModelBuilder(config, method="SP"),
        leaf_capacity=max(200, len(points) // 8),
    )
    started = time.perf_counter()
    index.build(points)
    seconds = time.perf_counter() - started
    return [
        {
            "op": "rsmi_build",
            "n": len(points),
            "backend": "level",
            "seconds": seconds,
            "speedup": None,
            "models": index.n_models(),
            "depth": index.depth(),
        }
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_selector.json", help="where to write the results"
    )
    args = parser.parse_args()

    scale = ExperimentScale.from_env(default="default")
    from repro.data import load_dataset

    points = load_dataset("OSM1", scale.n)
    print(f"scale={scale.name} n={scale.n} cpus={os.cpu_count()}")

    results = (
        bench_grid(scale) + bench_ml_knn(points, scale) + bench_rsmi_build(points, scale)
    )
    for r in results:
        seconds = "failed" if r["seconds"] is None else f"{r['seconds']:.3f}s"
        speedup = "-" if r["speedup"] is None else f"{r['speedup']:.2f}x"
        print(f"{r['op']:16s} {r['backend']:10s} {seconds:>10s} {speedup:>8s}")

    from repro.perf.fused_infer import resolve_dtype

    payload = {
        "benchmark": "bench_selector_grid",
        "scale": scale.name,
        "n": scale.n,
        "cpu_count": os.cpu_count(),
        "dtype": resolve_dtype(),
        "results": results,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
