"""Core perf microbenchmark: parallel build backends + batch-query engine.

Measures (1) multi-model index build time under every executor backend,
(2) batch point-query throughput against the per-query loop, (3) fused
batch inference (one grouped einsum across all leaf models) against the
per-model prediction loop — in float64 and the opt-in float32 mode — and
(4) the fused scan-refinement kernels (single-pass gather + vectorised
predicate over flattened candidate runs) against the pre-PR batch kernels
on the 1e6-point acceptance workload, with float32 key-memory/parity
evidence — then writes a machine-readable ``BENCH_core.json`` — the
repo's perf trajectory seed.

Run from the repo root (scale via ``REPRO_SCALE=smoke|default|large``):

    PYTHONPATH=src REPRO_SCALE=default python benchmarks/bench_perf_core.py

Each result record carries ``op``, ``n``, ``backend``, ``seconds`` and
``speedup`` (vs the serial backend for builds, vs a loop of per-query
calls — batches of one — for queries, vs the per-model loop for fused
inference).  Thread/process
speedups reflect the host's core count — on a single-core CI runner they
hover near 1.0x and the ``fused`` backend (vectorised multi-model
training) carries the build win.  The fused-inference section runs at
n=1e6 (except at smoke scale) and *asserts* that fusion is not slower
than the per-model loop.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.bench.harness import ExperimentScale
from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import FloodIndex, LISAIndex, MLIndex, ZMIndex

#: RMI stage-2 fan-out for the build benchmark (the issue's "multi-model
#: build, branching >= 8").
BRANCHING = 16
BUILD_BACKENDS = ("serial", "thread", "process", "fused")
QUERY_INDICES = (ZMIndex, MLIndex, LISAIndex, FloodIndex)


def _build_index(points: np.ndarray, backend: str, scale: ExperimentScale):
    config = ELSIConfig(train_epochs=scale.train_epochs, parallelism=backend)
    index = ZMIndex(
        builder=ELSIModelBuilder(config, method="SP"), branching=BRANCHING
    )
    started = time.perf_counter()
    index.build(points)
    return index, time.perf_counter() - started


def _models_identical(a, b) -> bool:
    return all(
        m1.err_l == m2.err_l
        and m1.err_u == m2.err_u
        and all(np.array_equal(w1, w2) for w1, w2 in zip(m1.net.weights, m2.net.weights))
        and all(np.array_equal(b1, b2) for b1, b2 in zip(m1.net.biases, m2.net.biases))
        for m1, m2 in zip(a.model.models, b.model.models)
    )


def bench_build(points: np.ndarray, scale: ExperimentScale) -> list[dict]:
    records = []
    serial_index, serial_seconds = _build_index(points, "serial", scale)
    records.append(
        {
            "op": "build",
            "n": len(points),
            "backend": "serial",
            "seconds": serial_seconds,
            "speedup": 1.0,
            "identical_to_serial": True,
        }
    )
    for backend in BUILD_BACKENDS[1:]:
        try:
            index, seconds = _build_index(points, backend, scale)
        except Exception as exc:  # e.g. process pools unavailable in a sandbox
            records.append(
                {
                    "op": "build",
                    "n": len(points),
                    "backend": backend,
                    "seconds": None,
                    "speedup": None,
                    "error": str(exc),
                }
            )
            continue
        records.append(
            {
                "op": "build",
                "n": len(points),
                "backend": backend,
                "seconds": seconds,
                "speedup": serial_seconds / seconds,
                "identical_to_serial": _models_identical(serial_index, index),
            }
        )
    return records


def bench_queries(points: np.ndarray, scale: ExperimentScale) -> list[dict]:
    rng = np.random.default_rng(7)
    b = max(scale.n_point_queries, 200)
    batch = np.vstack(
        [
            points[rng.integers(0, len(points), size=b)],  # hits
            rng.random((b, 2)) * 2.0,  # mostly misses
        ]
    )
    records = []
    for cls in QUERY_INDICES:
        config = ELSIConfig(train_epochs=scale.train_epochs)
        index = cls(builder=ELSIModelBuilder(config, method="SP")).build(points)
        started = time.perf_counter()
        loop = np.array([index.point_query(p) for p in batch], dtype=bool)
        loop_seconds = time.perf_counter() - started
        started = time.perf_counter()
        vectorised = index.point_queries(batch)
        batch_seconds = time.perf_counter() - started
        if not np.array_equal(loop, vectorised):
            raise AssertionError(f"{cls.name}: batch results diverge from the loop")
        records.append(
            {
                "op": f"point_queries[{cls.name}]",
                "n": len(batch),
                "backend": "loop",
                "seconds": loop_seconds,
                "speedup": 1.0,
            }
        )
        records.append(
            {
                "op": f"point_queries[{cls.name}]",
                "n": len(batch),
                "backend": "batch",
                "seconds": batch_seconds,
                "speedup": loop_seconds / batch_seconds,
            }
        )
    return records


#: Query batch size for the fused-inference benchmark (a serving-sized
#: micro-batch touching every stage-2 leaf).
FUSED_BATCH = 4096
#: Data size for the fused-inference benchmark at non-smoke scales (the
#: acceptance workload: 1e6 points).
FUSED_N = 1_000_000
#: Stage-2 fan-out for the fused-inference benchmark.  At 1e6 points a
#: branching-16 RMI leaves ~62k keys per leaf — far coarser than the
#: paper's per-leaf sizes — so the fused section uses a realistic wide
#: fan-out (~8k keys per leaf), which is also where the per-model
#: dispatch overhead that fusion removes actually bites.
FUSED_BRANCHING = 128


def _best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _build_big_pair(scale: ExperimentScale):
    """The acceptance-workload indices (n=1e6, wide fan-out), built once in
    float64 and float32 and shared by the fused-inference and
    refinement-kernel sections."""
    from repro.data import load_dataset

    n = scale.n if scale.name == "smoke" else FUSED_N
    points = load_dataset("OSM1", n)
    config = ELSIConfig(train_epochs=scale.train_epochs)
    index = ZMIndex(
        builder=ELSIModelBuilder(config, method="SP"), branching=FUSED_BRANCHING
    ).build(points)
    config32 = ELSIConfig(train_epochs=scale.train_epochs, dtype="float32")
    index32 = ZMIndex(
        builder=ELSIModelBuilder(config32, method="SP"), branching=FUSED_BRANCHING
    ).build(points)
    return points, index, index32


def bench_fused_inference(
    scale: ExperimentScale, points: np.ndarray, index: ZMIndex, index32: ZMIndex
) -> list[dict]:
    """Fused engine vs per-model batch prediction, float64 and float32."""
    n = len(points)
    rng = np.random.default_rng(11)
    model = index.model
    if model._engine is None:
        raise AssertionError("fused inference engine was not built")
    keys = index.map(points[rng.integers(0, len(points), size=FUSED_BATCH)])

    fused_seconds = _best_of(lambda: model.search_ranges(keys))
    engine = model._engine
    model._engine = None
    try:
        per_model_seconds = _best_of(lambda: model.search_ranges(keys))
        # Parity: both paths must answer real point queries identically.
        probe = points[rng.integers(0, len(points), size=512)]
        plain = index.point_queries(probe)
    finally:
        model._engine = engine
    if not np.array_equal(index.point_queries(probe), plain):
        raise AssertionError("fused point queries diverge from per-model")
    if fused_seconds > per_model_seconds:
        raise AssertionError(
            f"fused inference slower than per-model: "
            f"{fused_seconds:.4f}s vs {per_model_seconds:.4f}s"
        )
    records = [
        {
            "op": "fused_infer[ZM]",
            "n": n,
            "backend": "per_model",
            "seconds": per_model_seconds,
            "speedup": 1.0,
        },
        {
            "op": "fused_infer[ZM]",
            "n": n,
            "backend": "fused",
            "seconds": fused_seconds,
            "speedup": per_model_seconds / fused_seconds,
            "model_bytes": engine.nbytes,
        },
    ]

    # Opt-in float32: same answers, half the stacked-parameter memory.
    if index32.model._engine is None:
        raise AssertionError("float32 fused inference engine was not built")
    if not np.array_equal(index32.point_queries(probe), plain):
        raise AssertionError("float32 point queries diverge from float64")
    f32_seconds = _best_of(lambda: index32.model.search_ranges(keys))
    records.append(
        {
            "op": "fused_infer[ZM]",
            "n": n,
            "backend": "fused_f32",
            "seconds": f32_seconds,
            "speedup": per_model_seconds / f32_seconds,
            "model_bytes": index32.model._engine.nbytes,
            "parity_with_f64": True,
        }
    )
    return records


#: Batch sizes for the refinement-kernel benchmark (the acceptance
#: workload: 1e6-point batch point/window queries).
POINT_BATCH = 4096
WINDOW_BATCH = 256


def _reference_point_membership(store, lo, hi, query_keys, query_points):
    """The pre-PR batch point kernel, inlined verbatim as the baseline:
    one ``store.scan`` Python call per merged group, a single full-width
    gather-and-compare over all candidate rows, and ``logical_or.at``."""
    from repro.perf.batching import merge_ranges

    n = len(store)
    b = len(query_keys)
    out = np.zeros(b, dtype=bool)
    lo = np.clip(np.asarray(lo, dtype=np.int64), 0, n)
    hi = np.clip(np.asarray(hi, dtype=np.int64), 0, n)
    for g_lo, g_hi in zip(*merge_ranges(lo, hi)):
        store.scan(int(g_lo), int(g_hi))
    run_lo = np.searchsorted(store.keys, query_keys, side="left")
    run_hi = np.searchsorted(store.keys, query_keys, side="right")
    cand_lo = np.maximum(run_lo, lo)
    cand_hi = np.minimum(run_hi, hi)
    counts = np.maximum(cand_hi - cand_lo, 0)
    total = int(counts.sum())
    if total == 0:
        return out
    owner = np.repeat(np.arange(b), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    rows = np.arange(total) - np.repeat(offsets, counts) + np.repeat(cand_lo, counts)
    equal = np.all(store.points[rows] == query_points[owner], axis=1)
    np.logical_or.at(out, owner, equal)
    return out


def _reference_window_queries(index: ZMIndex, windows) -> list:
    """The pre-PR batch window path, inlined verbatim as the baseline: one
    batched model pass, then a per-window ``locate_rank`` + ``scan`` +
    ``contains_points`` Python loop."""
    from repro.indices.ml_index import locate_rank

    store, model = index.store, index.model
    w = len(windows)
    corners = np.vstack(
        [win.lo_array for win in windows] + [win.hi_array for win in windows]
    )
    z = np.asarray(index.map(corners), dtype=np.float64)
    lo_pred, hi_pred = model.search_ranges(z)
    results = []
    for i, window in enumerate(windows):
        lo = locate_rank(
            store.keys, float(z[i]), (int(lo_pred[i]), int(hi_pred[i])), "left"
        )
        hi = locate_rank(
            store.keys, float(z[w + i]), (int(lo_pred[w + i]), int(hi_pred[w + i])), "right"
        )
        pts, _keys, _ids = store.scan(lo, hi)
        results.append(pts[window.contains_points(pts)] if len(pts) else pts)
    return results


def _random_windows(rng: np.random.Generator, count: int) -> list:
    from repro.spatial.rect import Rect

    wins = []
    for _ in range(count):
        lo = rng.random(2) * 0.9
        wins.append(Rect(tuple(lo), tuple(lo + rng.random(2) * 0.08 + 0.005)))
    return wins


def bench_refine_kernels(
    scale: ExperimentScale, points: np.ndarray, index: ZMIndex, index32: ZMIndex
) -> list[dict]:
    """Fused refinement kernels vs the pre-PR batch kernels, plus float32
    key-memory/parity evidence, on the 1e6-point acceptance workload."""
    n = len(points)
    rng = np.random.default_rng(13)
    records = []

    # --- Batch point membership -------------------------------------
    batch = np.vstack(
        [
            points[rng.integers(0, len(points), size=POINT_BATCH // 2)],
            rng.random((POINT_BATCH // 2, 2)) * 2.0,
        ]
    )
    keys = index.map(batch)
    lo, hi = index.model.search_ranges(keys)
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, len(index.store))
    from repro.perf.batching import batch_point_membership

    ref_seconds = _best_of(
        lambda: _reference_point_membership(index.store, lo, hi, keys, batch)
    )
    new_seconds = _best_of(
        lambda: batch_point_membership(index.store, lo, hi, keys, batch)
    )
    ref_out = _reference_point_membership(index.store, lo, hi, keys, batch)
    new_out = batch_point_membership(index.store, lo, hi, keys, batch)
    if not np.array_equal(ref_out, new_out):
        raise AssertionError("fused point kernel diverges from the reference")
    records += [
        {
            "op": "point_refine[ZM]",
            "n": n,
            "backend": "reference",
            "seconds": ref_seconds,
            "speedup": 1.0,
        },
        {
            "op": "point_refine[ZM]",
            "n": n,
            "backend": "fused_kernel",
            "seconds": new_seconds,
            "speedup": ref_seconds / new_seconds,
        },
    ]

    # --- Batch window refinement ------------------------------------
    windows = _random_windows(rng, WINDOW_BATCH)
    ref_w_seconds = _best_of(lambda: _reference_window_queries(index, windows))
    new_w_seconds = _best_of(lambda: index.window_queries(windows))
    ref_w = _reference_window_queries(index, windows)
    new_w = index.window_queries(windows)
    for a, b in zip(ref_w, new_w):
        if not np.array_equal(a, b):
            raise AssertionError("fused window kernel diverges from the reference")
    records += [
        {
            "op": "window_refine[ZM]",
            "n": n,
            "backend": "reference",
            "seconds": ref_w_seconds,
            "speedup": 1.0,
        },
        {
            "op": "window_refine[ZM]",
            "n": n,
            "backend": "fused_kernel",
            "seconds": new_w_seconds,
            "speedup": ref_w_seconds / new_w_seconds,
        },
    ]
    if scale.name != "smoke":
        # The acceptance gate: at 1e6 the fused kernels must win.
        if new_seconds > ref_seconds:
            raise AssertionError(
                f"fused point kernel slower than reference: "
                f"{new_seconds:.4f}s vs {ref_seconds:.4f}s"
            )
        if new_w_seconds > ref_w_seconds:
            raise AssertionError(
                f"fused window kernel slower than reference: "
                f"{new_w_seconds:.4f}s vs {ref_w_seconds:.4f}s"
            )

    # --- float32 keys: half the key memory, identical answers --------
    k64, k32 = index.store.keys, index32.store.keys
    if k32.dtype != np.float32:
        raise AssertionError(f"float32 index stores {k32.dtype} keys")
    keys32 = index32.map(batch)
    lo32, hi32 = index32.model.search_ranges(keys32)
    lo32 = np.maximum(lo32, 0)
    hi32 = np.minimum(hi32, len(index32.store))
    f32_point = batch_point_membership(index32.store, lo32, hi32, keys32, batch)
    if not np.array_equal(f32_point, new_out):
        raise AssertionError("float32 point queries diverge from float64")
    def _canon(rows):
        rows = np.atleast_2d(rows)
        return rows if len(rows) == 0 else rows[np.lexsort(rows.T)]

    f32_w = index32.window_queries(windows)
    for a, b in zip(new_w, f32_w):
        if not np.array_equal(_canon(a), _canon(b)):
            raise AssertionError("float32 window queries diverge from float64")
    f32_point_seconds = _best_of(
        lambda: batch_point_membership(index32.store, lo32, hi32, keys32, batch)
    )
    f32_window_seconds = _best_of(lambda: index32.window_queries(windows))
    records += [
        {
            "op": "point_refine[ZM]",
            "n": n,
            "backend": "fused_kernel_f32",
            "seconds": f32_point_seconds,
            "speedup": ref_seconds / f32_point_seconds,
            "key_bytes": k32.nbytes,
            "key_bytes_f64": k64.nbytes,
            "parity_with_f64": True,
        },
        {
            "op": "window_refine[ZM]",
            "n": n,
            "backend": "fused_kernel_f32",
            "seconds": f32_window_seconds,
            "speedup": ref_w_seconds / f32_window_seconds,
            "key_bytes": k32.nbytes,
            "key_bytes_f64": k64.nbytes,
            "parity_with_f64": True,
        },
    ]
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_core.json", help="where to write the results"
    )
    args = parser.parse_args()

    scale = ExperimentScale.from_env(default="default")
    from repro.data import load_dataset

    points = load_dataset("OSM1", scale.n)
    print(f"scale={scale.name} n={scale.n} cpus={os.cpu_count()}")

    big_points, big_index, big_index32 = _build_big_pair(scale)
    results = (
        bench_build(points, scale)
        + bench_queries(points, scale)
        + bench_fused_inference(scale, big_points, big_index, big_index32)
        + bench_refine_kernels(scale, big_points, big_index, big_index32)
    )
    for r in results:
        seconds = "failed" if r["seconds"] is None else f"{r['seconds']:.3f}s"
        speedup = "-" if r["speedup"] is None else f"{r['speedup']:.2f}x"
        print(f"{r['op']:24s} {r['backend']:8s} {seconds:>10s} {speedup:>8s}")

    from repro.perf.fused_infer import resolve_dtype

    payload = {
        "benchmark": "bench_perf_core",
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
