#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md next to this file).

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/run.py compare A.json B.json

One run = set-up (inputs, the index / server / cluster built three times, one
untimed warm-up round at full counts), then interleaved rounds of fixed work
until ``--seconds`` have been measured, then an untimed brute-force check of
the last round's answers.  Every timed call runs between two samples of a
fixed calibration kernel (``hostspeed.py``) and is reported in seconds at the
reference host speed; a rate is the median over the run's calls.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` records spans
around every phase and layer replay and reports the per-layer metrics (as
measured, unscaled).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# One BLAS/OpenMP thread (set before NumPy is imported; spawned shard
# workers inherit it), and none of the program's environment overrides.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CLEARED_VARS = ("REPRO_TRACE", "REPRO_FAULTS", "REPRO_PARALLELISM", "REPRO_DTYPE")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
for _var in CLEARED_VARS:
    os.environ.pop(_var, None)
# glibc hands large arrays back to the kernel on every free and faults them
# in again on the next allocation; on this VM that made one ZM build take
# 0.7-1.5 s (quartile distance 27-45 % of the median) against 0.8-1.0 s
# (7-11 %) with the heap kept.  Keep it: no mmap for big blocks, no trim.
# One arena, so that the threads of the served workload do not each grow
# their own (peak RSS moved 19 % between runs with the default).  Workers
# read the same settings from the environment at start-up.
os.environ.update({"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(2**31 - 1),
                   "MALLOC_ARENA_MAX": "1"})
try:
    import ctypes

    _mallopt = ctypes.CDLL("libc.so.6").mallopt
    # M_MMAP_MAX = -4, M_TRIM_THRESHOLD = -1, M_ARENA_MAX = -8
    MALLOC_KEPT = all(_mallopt(k, v) for k, v in ((-4, 0), (-1, 2**31 - 1), (-8, 1)))
except (OSError, AttributeError):  # not glibc: run with the default allocator
    MALLOC_KEPT = False
for _path in (str(HERE), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

#: Set-up builds the index (server, cluster) this many times and keeps the
#: last, so that ``setup_s`` rests on several builds and not on one.
SETUP_OPENS = 3
#: Rounds measured whatever ``--seconds`` says (a median needs a few).
MIN_ROUNDS = 3
#: Traced pass: untraced and traced rounds taken alternately.
TRACE_ROUNDS = 2
OUT_DIR = ROOT / ".bench_e2e"


def summarise(values: list[float], timed_s: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"value": median, "q1": q1, "q3": q3, "samples": len(values), "timed_s": timed_s}


def rate(samples: list) -> dict:
    """Operations per second: median over rounds of the per-round rate."""
    return summarise([ops / dt for ops, dt in samples], sum(dt for _ops, dt in samples))


def scaled_rate(calls: list) -> dict:
    """Operations per second at the reference host speed: median over the
    run's calls of each call's rate; ``raw`` is the same of the seconds as
    they were measured."""
    out = summarise([ops / scaled for ops, _dt, scaled in calls],
                    sum(dt for _ops, dt, _scaled in calls))
    out["raw"] = statistics.median(ops / dt for ops, dt, _scaled in calls)
    return out


def end_to_end(workload, setup: dict) -> dict:
    """Per-call figures -> median, quartiles, sample count, timed seconds."""
    import workloads

    out = {"setup_s": setup}
    for kind in workloads.READS:
        out[f"{kind}_qps"] = scaled_rate(workload.calls[kind])
    out["peak_rss_mb"] = {"value": workloads.rss_mb(), "samples": 1}
    return out


def set_up(workload, clock) -> dict:
    """``setup_s``: every stage from process start to the first measured
    round, each in seconds at the reference host speed: imports, input
    generation, ``SETUP_OPENS`` builds of the index / server / cluster (the
    last is kept) and one warm-up round at full counts (caches fill, lazy
    imports run, fused engines build, the heap reaches its size)."""
    imports_s = time.perf_counter() - _PROCESS_START
    stages = {"imports": (imports_s, imports_s * clock.reference_s / clock.sample())}

    def reopen():
        workload.shut()
        workload.release()
        workload.open()

    for name, fn in [("inputs", workload.setup), ("open-1", workload.open),
                     *((f"open-{i}", reopen) for i in range(2, SETUP_OPENS + 1))]:
        _none, seconds, scaled = clock.timed(fn)
        stages[name] = (seconds, scaled)
    started = time.perf_counter()
    scaled = workload.run_round()
    stages["warm-up"] = (time.perf_counter() - started, scaled)
    # The opens count as SETUP_OPENS times their median: the first one grows
    # the heap and took up to twice as long as the others.
    opens = statistics.median(scaled for name, (_s, scaled) in stages.items()
                              if name.startswith("open-"))
    rest = sum(scaled for name, (_s, scaled) in stages.items() if not name.startswith("open-"))
    return {"value": rest + SETUP_OPENS * opens, "samples": len(stages),
            "raw": time.perf_counter() - _PROCESS_START,
            "stages": {name: {"seconds": sec, "reference_seconds": ref}
                       for name, (sec, ref) in stages.items()}}


def host_fingerprint(statedir: Path) -> dict:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fs = "unknown"
    try:
        best = ""
        for line in Path("/proc/mounts").read_text().splitlines():
            _dev, mount, fstype = line.split()[:3]
            if str(statedir).startswith(mount) and len(mount) > len(best):
                best, fs = mount, fstype
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "statedir_fs": fs,
    }


def child_pids() -> list[int]:
    """Live or unreaped processes whose parent is this one (from /proc)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # ended while we looked
            continue
        # "pid (comm) state ppid ..."; comm may hold spaces and brackets
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_processes() -> None:
    """No process of this run outlives it.

    The shard workers are stopped and joined by ``router.close()``, but the
    ``spawn`` context they start under also starts multiprocessing's
    resource tracker, which ends only when its parent has gone: it was
    still there (orphaned, then a zombie of pid 1) after the run printed
    its result.  Close its pipe and wait for it, then kill and reap
    whatever child is left, whichever path led here."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is not None:
        try:
            os.close(fd)  # end of file on its pipe stops the tracker
        except OSError:
            pass
        tracker._fd = None
        if pid is not None:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            tracker._pid = None
    for pid in child_pids():
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def run_rounds(workload, rec, seconds: float, smoke: bool) -> int:
    """Rounds of fixed work until ``seconds`` are measured; a new round
    starts only if one more of the last length still fits."""
    started = time.perf_counter()
    rounds = 0
    while True:
        rec.round_id = rounds + 1
        round_started = time.perf_counter()
        workload.run_round()
        now = time.perf_counter()
        rounds += 1
        if smoke:
            return rounds
        if rounds >= MIN_ROUNDS and (now - started) + (now - round_started) > seconds:
            return rounds


def run_traced(workload, rec, smoke: bool) -> tuple[dict, dict]:
    """Full rounds (build, reads, insert), untraced and traced alternately,
    then the layer replays."""
    import layers

    untraced = workload.samples
    traced = {phase: [] for phase in untraced}
    for i in range(1 if smoke else TRACE_ROUNDS):
        workload.samples, rec.enabled = untraced, False
        workload.run_round(full=True)
        workload.samples, rec.enabled, rec.round_id = traced, True, i + 1
        with rec.span("round"):
            workload.run_round(full=True)
    workload.samples = traced
    rec.round_id = None
    with rec.span("layers"):
        values = layers.REPLAYS[workload.name](workload)
    rec.enabled = False

    def phase_time(samples):
        return sum(statistics.median(dt for _ops, dt in s) for s in samples.values())

    values["route.build_s"] = statistics.median(dt for _ops, dt in traced["build"])
    values["route.insert_qps"] = rate(traced["insert"])["value"]
    values["bench.trace_overhead_frac"] = phase_time(traced) / phase_time(untraced) - 1.0
    return values, traced


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:], spec)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="n = 5 000, one round")
    parser.add_argument("--out", help="append the result as one JSON line to this file")
    args = parser.parse_args(argv)

    import hostspeed
    import oracle
    import spans
    import workloads

    # A terminated run unwinds like any other, so that its workers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    statedir = OUT_DIR / f"state-{os.getpid()}"
    statedir.mkdir(parents=True, exist_ok=True)
    rec = spans.SpanRecorder()
    tally = oracle.Tally()
    clock = hostspeed.HostClock(workloads.WORKLOADS[args.workload].host_mix)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, statedir, rec, tally,
                                                  clock)
    try:
        setup = set_up(workload, clock)
        workload.recording = True
        measure_started = time.perf_counter()
        if args.trace:
            workload.shut()
            values, samples = run_traced(workload, rec, args.smoke)
            rounds = len(samples["build"])
            declared = spec["per_layer"]
            detail = {
                m["name"]: {"value": float(values.get(m["name"], 0.0)),
                            "applies": m["name"] in values}
                for m in declared
            }
            unknown = sorted(set(values) - {m["name"] for m in declared})
            if unknown:
                raise SystemExit(f"layer metrics not declared in BENCHMARK.json: {unknown}")
            trace_path = OUT_DIR / f"trace-{args.workload}.json"
            rec.write(trace_path)
        else:
            rounds = run_rounds(workload, rec, args.seconds, args.smoke)
            declared = spec["end_to_end"]
            detail = end_to_end(workload, setup)
            trace_path = None
        measured_s = time.perf_counter() - measure_started
        workload.check()
    finally:
        try:
            workload.shut()
        finally:
            stop_processes()
            shutil.rmtree(statedir, ignore_errors=True)

    for m in declared:
        detail[m["name"]]["unit"] = m["unit"]
    result = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "rounds": rounds,
        "measured_s": measured_s,
        "scale": vars(workload.scale),
        "settings": {
            "elsi": workloads.ELSI_KWARGS, "method": workloads.METHOD,
            "serve": workloads.SERVE_KWARGS, "pipeline": workloads.PIPELINE,
            "k": workloads.K, "window_area": 1e-4, "dataset": workloads.DATASET,
            "data_seed": workloads.DATA_SEED,
            "host_mix": list(clock.mix), "host_reference_s": clock.reference_s,
            "blas_threads": 1, "cleared_env": list(CLEARED_VARS),
            "gc": "collected before each round, off during it",
            "malloc_heap_kept": MALLOC_KEPT, "setup_opens": SETUP_OPENS,
        },
        "host": host_fingerprint(OUT_DIR),
        "host_kernel_s": summarise(clock.samples, sum(clock.samples)),
        "metrics": detail,
        "round_samples": {phase: [[ops, dt] for ops, dt in s] for phase, s in workload.samples.items()},
        "call_samples": {kind: [list(call) for call in calls] for kind, calls in workload.calls.items()},
        "shares": workload.shares,
        "trace_file": str(trace_path) if trace_path else None,
        "ops_attempted": tally.attempted,
        "ops_failed": tally.failed,
        "wrong_answers": tally.wrong,
        "failures": tally.notes,
        "claim": None,
    }
    out_path = OUT_DIR / f"result-{args.workload}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(result) + "\n")

    print(f"{args.workload}  seed {args.seed}  rounds {rounds}  "
          f"measured {measured_s:.1f} s  -> {out_path}")
    for m in declared:
        d = detail[m["name"]]
        spread = f"  [q1 {d['q1']:.6g}, q3 {d['q3']:.6g}, n={d['samples']}, {d['timed_s']:.1f} s timed]" if "q1" in d else ""
        if "raw" in d:
            spread += f"  (as measured on this host: {d['raw']:.6g})"
        na = "" if d.get("applies", True) else "  (layer does no work on this workload)"
        print(f"  {m['name']:<48} {d['value']:>14.6g} {m['unit']}{spread}{na}")
    print(f"  ops_attempted {tally.attempted}  ops_failed {tally.failed}  claim: null")
    for note in tally.notes:
        print(f"  FAILED: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": detail[m["name"]]["value"], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if tally.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
