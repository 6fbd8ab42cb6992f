"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the six evaluation data sets with distribution statistics.
``build``
    Build an index on a data set and report the Section VI cost breakdown.
``query``
    Build then run a point/window/kNN workload, reporting latencies.
``experiments run``
    Run the paper's evaluation grid (Section VII) into a resumable rows
    file, print every table and check the paper's shapes.
``experiments report``
    Render EXPERIMENTS.md from a rows file.
``obs report``
    Render a ``REPRO_TRACE`` JSON-lines trace: per-phase cost breakdown
    plus the nested span tree (see docs/observability.md).
``obs trace``
    Dump one request's cross-process span tree out of such a trace.
``obs flame``
    Turn a ``REPRO_TRACE`` trace into a flame graph: an SVG icicle (the
    default), the folded-stack text format (``--folded``), and a
    heaviest-paths terminal summary (see docs/performance.md).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.bench.experiments import ALL_METHODS as _METHODS
from repro.bench.experiments import TRADITIONAL_INDICES as _TRADITIONAL
from repro.bench.harness import format_table
from repro.core import ELSIConfig, ELSIModelBuilder
from repro.data import DATASETS, load_dataset
from repro.indices import LEARNED_INDICES
from repro.queries.workload import knn_workload, point_workload, window_workload
from repro.spatial.cdf import uniform_dissimilarity
from repro.spatial.rect import Rect
from repro.spatial.zcurve import zvalues

__all__ = ["main"]


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in DATASETS:
        points = load_dataset(name, args.n, seed=args.seed)
        keys = np.sort(zvalues(points, Rect.bounding(points)).astype(np.float64))
        rows.append(
            [
                name,
                len(points),
                f"{uniform_dissimilarity(keys, assume_sorted=True):.3f}",
                f"{points[:, 0].mean():.3f}",
                f"{points[:, 1].mean():.3f}",
            ]
        )
    print(format_table(
        ["data set", "n", "dist(D_U, D)", "mean x", "mean y"],
        rows,
        title=f"Evaluation data sets at n={args.n} (paper: 1e8+)",
    ))
    return 0


def _make_index(args: argparse.Namespace):
    config = ELSIConfig(lam=args.lam, train_epochs=args.epochs, seed=args.seed)
    if args.index in _TRADITIONAL:
        return _TRADITIONAL[args.index]()
    builder = ELSIModelBuilder(config, method=args.method)
    return LEARNED_INDICES[args.index](builder=builder)


def _cmd_build(args: argparse.Namespace) -> int:
    points = load_dataset(args.dataset, args.n, seed=args.seed)
    index = _make_index(args)
    started = time.perf_counter()
    index.build(points)
    total = time.perf_counter() - started
    print(f"built {args.index} on {args.dataset} (n={args.n}) in {total:.2f}s")
    stats = getattr(index, "build_stats", None)
    if stats is not None:
        print(format_table(
            ["component", "seconds"],
            [
                ["data preparation (cost_dp)", f"{stats.prepare_seconds:.3f}"],
                ["model training (T)", f"{stats.train_seconds:.3f}"],
                ["method extra (cost_ex)", f"{stats.extra_seconds:.3f}"],
                ["error bounds (M(n))", f"{stats.error_bound_seconds:.3f}"],
            ],
            title="Section VI cost decomposition",
        ))
        print(f"models: {stats.n_models}, training pairs: {stats.train_set_size}, "
              f"methods: {stats.methods_used}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    points = load_dataset(args.dataset, args.n, seed=args.seed)
    index = _make_index(args)
    index.build(points)

    rows = []
    queries = point_workload(points, args.queries, seed=args.seed)
    started = time.perf_counter()
    hits = sum(q.run(index) for q in queries)
    rows.append(["point", len(queries), f"{(time.perf_counter()-started)/len(queries)*1e6:.1f}",
                 f"{hits}/{len(queries)} found"])

    windows = window_workload(points, max(args.queries // 5, 5), 1e-3, seed=args.seed)
    started = time.perf_counter()
    counts = [len(q.run(index)) for q in windows]
    rows.append(["window (0.1%)", len(windows),
                 f"{(time.perf_counter()-started)/len(windows)*1e6:.1f}",
                 f"avg {np.mean(counts):.1f} results"])

    knns = knn_workload(points, max(args.queries // 10, 3), k=25, seed=args.seed)
    started = time.perf_counter()
    for q in knns:
        q.run(index)
    rows.append(["kNN (k=25)", len(knns),
                 f"{(time.perf_counter()-started)/len(knns)*1e6:.1f}", ""])

    print(format_table(
        ["query type", "count", "us/query", "notes"],
        rows,
        title=f"{args.index} on {args.dataset} (n={args.n})",
    ))
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        check_cross_process,
        load_trace,
        missing_spans,
        render_report,
    )

    try:
        records = load_trace(args.trace)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(render_report(
        records, max_depth=args.depth, min_seconds=args.min_ms / 1e3
    ))
    if args.require:
        required = [name for name in args.require.split(",") if name]
        missing = missing_spans(records, required)
        if missing:
            print(f"\nmissing required spans: {', '.join(missing)}", file=sys.stderr)
            return 1
        print(f"\nall {len(required)} required spans present")
    if args.require_cross:
        try:
            root_name, child_name = args.require_cross.split(":", 1)
        except ValueError:
            print("--require-cross wants ROOT:CHILD (span names)",
                  file=sys.stderr)
            return 2
        problem = check_cross_process(records, root_name, child_name)
        if problem is not None:
            print(f"\ncross-process check failed: {problem}", file=sys.stderr)
            return 1
        print(f"\ncross-process check passed: {root_name!r} has adopted "
              f"{child_name!r} spans from another process sharing its "
              "trace_id")
    return 0


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        load_trace,
        render_report,
        request_ids,
        request_spans,
    )

    try:
        records = load_trace(args.trace)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    ids = request_ids(records)
    if args.list or not args.request:
        if not ids:
            print("trace carries no request_id-tagged spans", file=sys.stderr)
            return 1
        print(f"{len(ids)} request(s) in {args.trace}:")
        for rid in ids:
            print(f"  {rid}")
        if not args.request:
            print("\npick one with: repro obs trace "
                  f"{args.trace} --request <id>")
        return 0
    subset = request_spans(records, args.request)
    if not subset:
        print(f"no spans tagged request_id={args.request!r} "
              f"(known: {', '.join(ids) or 'none'})", file=sys.stderr)
        return 1
    pids = sorted({r.pid for r in subset})
    print(f"request {args.request}: {len(subset)} spans across "
          f"{len(pids)} process(es) {pids}")
    print(render_report(subset, max_depth=args.depth, min_seconds=0.0))
    return 0


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    from repro.obs.flame import folded_stacks, render_folded, render_svg, top_paths
    from repro.obs.report import load_trace

    try:
        records = load_trace(args.trace)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if not records:
        print("trace contains no spans", file=sys.stderr)
        return 1
    stacks = folded_stacks(records)
    if args.folded:
        with open(args.folded, "w") as fh:
            fh.write(render_folded(stacks) + "\n")
        print(f"wrote folded stacks for {len(records)} spans to {args.folded}")
    with open(args.output, "w") as fh:
        fh.write(render_svg(stacks, width=args.width))
    print(f"wrote flame graph for {len(records)} spans to {args.output}")
    total = sum(stacks.values())
    print(f"\ntop {args.top} paths by self time ({total * 1e3:.1f} ms traced):")
    for path, seconds in top_paths(stacks, args.top):
        share = seconds / total * 100.0 if total > 0 else 0.0
        print(f"  {seconds * 1e3:9.2f} ms  {share:5.1f}%  {path}")
    return 0


def _cmd_experiments_run(args: argparse.Namespace) -> int:
    from repro.bench.experiments import failed_rows, row_key, run_grid
    from repro.bench.harness import ExperimentScale
    from repro.bench.views import by_seed, shape_failures, tables

    scale = ExperimentScale.from_env()
    path = args.rows or f"experiments-{scale.name}.jsonl"
    print(f"scale {scale.name} (n={scale.n:,}, seeds {scale.seeds}) -> {path}")
    rows = run_grid(scale, path, log=print)
    data = by_seed(rows)
    for table in tables(data).values():
        print("\n" + table.text())
    failed = failed_rows(rows)
    for row in failed:
        print(f"\nFAILED {row_key(row)}:\n{row['error']}", file=sys.stderr)
    if failed:
        return 1
    failures = shape_failures(data)
    for failure in failures:
        print(f"SHAPE {failure}", file=sys.stderr)
    print(f"\n{sum(map(len, data.values()))} cells, {len(failures)} shape checks failed")
    return 1 if failures else 0


def _cmd_experiments_report(args: argparse.Namespace) -> int:
    from repro.bench.experiments import load_rows
    from repro.bench.harness import ExperimentScale
    from repro.bench.views import render_report

    rows = load_rows(args.rows or f"experiments-{ExperimentScale.from_env().name}.jsonl")
    if not rows:
        print("no rows: run `python -m repro experiments run` first", file=sys.stderr)
        return 1
    sys.stdout.write(render_report(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ELSI: Efficiently Learning Spatial Indices (ICDE 2023) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list evaluation data sets")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_datasets)

    for name, fn in (("build", _cmd_build), ("query", _cmd_query)):
        p = sub.add_parser(name, help=f"{name} an index on a data set")
        p.add_argument("--index", choices=sorted({**LEARNED_INDICES, **_TRADITIONAL}), default="ZM")
        p.add_argument("--dataset", choices=sorted(DATASETS), default="OSM1")
        p.add_argument("--method", choices=_METHODS, default="RS",
                       help="ELSI build method (learned indices only)")
        p.add_argument("--n", type=int, default=20_000)
        p.add_argument("--lam", type=float, default=0.8)
        p.add_argument("--epochs", type=int, default=300)
        p.add_argument("--queries", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=fn)

    p = sub.add_parser("obs", help="observability tools (traces)")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser("report", help="render a REPRO_TRACE JSONL trace")
    p.add_argument("trace", help="path to the JSON-lines trace file")
    p.add_argument("--depth", type=int, default=12,
                   help="maximum span-tree depth to render")
    p.add_argument("--min-ms", type=float, default=0.0,
                   help="hide child spans shorter than this many ms")
    p.add_argument("--require", default=None,
                   help="comma-separated span names that must be present "
                        "(exit 1 otherwise; the CI smoke assertion)")
    p.add_argument("--require-cross", default=None, metavar="ROOT:CHILD",
                   help="require a ROOT span with an adopted CHILD span "
                        "from another process sharing ROOT's trace_id "
                        "(exit 1 otherwise; the cross-process CI assertion)")
    p.set_defaults(func=_cmd_obs_report)
    p = obs_sub.add_parser(
        "trace", help="dump one request's cross-process span tree"
    )
    p.add_argument("trace", help="path to the JSON-lines trace file")
    p.add_argument("--request", default=None,
                   help="request id (from scatter spans / --list)")
    p.add_argument("--list", action="store_true",
                   help="list the request ids present in the trace")
    p.add_argument("--depth", type=int, default=12,
                   help="maximum span-tree depth to render")
    p.set_defaults(func=_cmd_obs_trace)
    p = obs_sub.add_parser("flame", help="render a trace as a flame graph")
    p.add_argument("trace", help="path to the JSON-lines trace file")
    p.add_argument("--output", default="flame.svg",
                   help="SVG output path (default flame.svg)")
    p.add_argument("--folded", default=None,
                   help="also write folded stacks (flamegraph.pl/speedscope "
                        "input) to this path")
    p.add_argument("--width", type=int, default=1200,
                   help="SVG width in pixels")
    p.add_argument("--top", type=int, default=10,
                   help="heaviest paths to print to the terminal")
    p.set_defaults(func=_cmd_obs_flame)

    p = sub.add_parser("experiments", help="the paper's evaluation (Section VII)")
    exp_sub = p.add_subparsers(dest="experiments_command", required=True)
    for name, func, text in (
        ("run", _cmd_experiments_run, "run the cell grid (resumes a partial rows file)"),
        ("report", _cmd_experiments_report, "render EXPERIMENTS.md from a rows file"),
    ):
        p = exp_sub.add_parser(name, help=text)
        p.add_argument("--rows", default=None,
                       help="rows file (default: experiments-<REPRO_SCALE>.jsonl)")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
