"""Chaos scenarios: crash the serving stack on purpose, then prove recovery.

Five named scenarios (:data:`SCENARIOS`) exercise the durability contract
end to end; ``python -m repro chaos`` runs them all, and the CI
``chaos-smoke`` job runs that:

``kill-before`` / ``kill-after-wal`` / ``kill-torn`` (kill-and-recover)
    A child process builds a small index, serves it with a write-ahead
    log, applies a randomized insert/delete schedule — recording every
    *acknowledged* operation to an fsynced acks file — and kills itself
    with ``os._exit`` mid-schedule: before the op, after its WAL append
    but before the acknowledgement, or mid-append with a torn WAL record
    (:data:`KILL_MODES`).  The parent recovers with
    :meth:`IndexServer.from_snapshot` and proves the recovered state is
    **base + a schedule prefix covering every acknowledged op**, and that
    query results are bit-identical to an uncrashed reference.

``torn-snapshot``
    A ``snapshot.write=torn_write`` fault leaves a truncated ``.npz`` as
    the newest generation.  Recovery must quarantine it, fall back to the
    previous generation, and replay the retained WAL files — losing
    nothing.

``rebuild-crash-retry``
    A ``rebuild.worker=error:2`` fault kills the first two rebuild
    attempts; the retry/backoff machinery must converge on the third,
    restore ``healthy``, and the post-crash state must survive a full
    crash/recover cycle.

Every scenario returns a JSON-able report (op counts, verified prefix
length, per-site fault triggers) and raises :class:`ChaosError` on any
acknowledged-update loss — the harness asserts *zero*.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core import ELSIConfig, ELSIModelBuilder
from repro.core.update_processor import UpdateProcessor
from repro.data import load_dataset
from repro.faults.registry import InjectedFault, get_fault_registry
from repro.indices.zm import ZMIndex
from repro.obs.metrics import series_sum
from repro.serve.server import HEALTHY, MAX_RETRIES, IndexServer
from repro.spatial.rect import Rect

__all__ = [
    "ChaosError",
    "SCENARIOS",
    "kill_and_recover",
    "make_schedule",
    "rebuild_crash_retry",
    "run_scenarios",
    "torn_snapshot",
    "verify_recovery",
]

#: Child kill points relative to the WAL append of the kill op:
#: ``before`` — die before the op (acks == durable state, no tail);
#: ``after-wal`` — die after the durable append but before the client
#: acknowledgement (a durable-but-unacked tail op, the classic gap);
#: ``torn`` — die mid-append, leaving a torn record replay must drop.
KILL_MODES = ("before", "after-wal", "torn")

_CHILD_EXIT = 17  # deliberate-crash marker, distinct from real failures

_DATASET = "OSM1"


class ChaosError(AssertionError):
    """A chaos scenario observed acknowledged-update loss (or a broken
    invariant on the way there)."""


# ----------------------------------------------------------------------
# Deterministic workload + logical-state verification
# ----------------------------------------------------------------------
def _build_index(seed: int, n: int, epochs: int):
    """Deterministically build the small served index (child and the
    uncrashed reference both call this with the same arguments)."""
    points = load_dataset(_DATASET, n, seed=seed)
    config = ELSIConfig(train_epochs=epochs, seed=seed)
    builder = ELSIModelBuilder(config, method="SP")
    index = ZMIndex(builder=builder)
    index.build(points)
    factory = lambda: ZMIndex(builder=builder)  # noqa: E731
    return index, points, config, factory


def make_schedule(
    points: np.ndarray, n_ops: int, seed: int, delete_fraction: float = 0.3
) -> list[tuple[str, np.ndarray]]:
    """A deterministic randomized insert/delete schedule over ``points``.

    Deletes target points known to be live at that position in the
    schedule (base points or earlier inserts), so every op changes state.
    """
    rng = np.random.default_rng(seed + 0x5EED)
    live = [np.asarray(p, dtype=np.float64) for p in points]
    ops: list[tuple[str, np.ndarray]] = []
    for _ in range(n_ops):
        if live and rng.random() < delete_fraction:
            victim = live.pop(int(rng.integers(len(live))))
            ops.append(("delete", victim))
        else:
            fresh = rng.uniform(0.0, 1.0, size=points.shape[1])
            live.append(fresh)
            ops.append(("insert", fresh))
    return ops


def _canon(rows) -> np.ndarray:
    """Canonical (lexicographically sorted) form of a point multiset."""
    arr = np.asarray(list(rows), dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    order = np.lexsort(arr.T[::-1])
    return arr[order]


def _apply_op(live: list, op: str, point: np.ndarray) -> None:
    if op == "insert":
        live.append(np.asarray(point, dtype=np.float64))
        return
    for i, existing in enumerate(live):
        if np.array_equal(existing, point):
            live.pop(i)
            return


def verify_recovery(
    base_points: np.ndarray,
    schedule: list[tuple[str, np.ndarray]],
    n_acked: int,
    recovered_points: np.ndarray,
) -> int:
    """Prove ``recovered_points`` == base + ``schedule[:m]`` for some
    ``m >= n_acked``; returns that ``m``.

    ``m`` may exceed the acknowledged count: an op whose WAL append hit
    disk but whose acknowledgement never reached the client is *allowed*
    to survive (durable-but-unacked) — what is **not** allowed is a
    missing acknowledged op, which is exactly ``m < n_acked``.
    """
    recovered = _canon(recovered_points)
    live = [np.asarray(p, dtype=np.float64) for p in base_points]
    for op, point in schedule[:n_acked]:
        _apply_op(live, op, point)
    for m in range(n_acked, len(schedule) + 1):
        if np.array_equal(_canon(live), recovered):
            return m
        if m < len(schedule):
            _apply_op(live, *schedule[m])
    raise ChaosError(
        f"acknowledged-update loss: recovered state ({len(recovered)} points) "
        f"matches no schedule prefix >= the {n_acked} acknowledged ops "
        f"(base {len(base_points)}, schedule {len(schedule)})"
    )


def _reference_processor(
    seed: int, n: int, epochs: int, schedule, m: int
) -> UpdateProcessor:
    """The uncrashed reference: a fresh build plus ``schedule[:m]``."""
    index, _, _, factory = _build_index(seed, n, epochs)
    processor = UpdateProcessor(index, index_factory=factory)
    for op, point in schedule[:m]:
        if op == "insert":
            processor.insert(point)
        else:
            processor.delete(point)
    return processor


def _assert_query_parity(
    recovered: IndexServer, reference: UpdateProcessor, schedule, m: int
) -> None:
    """Bit-identical query results, recovered vs the uncrashed reference."""
    probes = _canon(
        [p for op, p in schedule[:m]] + list(reference.current_points()[:64])
    )
    got = recovered._gen.processor.point_queries(probes)
    want = reference.point_queries(probes)
    if not np.array_equal(np.asarray(got), np.asarray(want)):
        raise ChaosError("point-query results diverge from the uncrashed reference")
    window = Rect((0.0, 0.0), (1.0, 1.0))
    got_w = _canon(recovered._gen.processor.window_query(window))
    want_w = _canon(reference.window_query(window))
    if not np.array_equal(got_w, want_w):
        raise ChaosError("window-query results diverge from the uncrashed reference")


# ----------------------------------------------------------------------
# The crashing child (run as: python -m repro.faults.chaos child ...)
# ----------------------------------------------------------------------
def _child_main(args: argparse.Namespace) -> int:
    """Serve with a WAL, ack each op to an fsynced file, die on schedule."""
    index, points, config, factory = _build_index(args.seed, args.n, args.epochs)
    schedule = make_schedule(points, args.ops, args.seed)
    server = IndexServer(
        index,
        elsi_config=config,
        index_factory=factory,
        snapshots=args.dir,
        wal=True,
    )
    acks = open(Path(args.dir) / "acks.jsonl", "a")
    for i, (op, point) in enumerate(schedule):
        if i == args.rebuild_at:
            server.rebuild_now()
        if i == args.kill_after:
            if args.kill_mode == "before":
                os._exit(_CHILD_EXIT)
            if args.kill_mode == "torn":
                get_fault_registry().arm("wal.append", kind="torn_write")
                try:
                    server.insert(point) if op == "insert" else server.delete(point)
                except InjectedFault:
                    pass
                os._exit(_CHILD_EXIT)
            # after-wal: the append below is durable, the ack never happens
            if op == "insert":
                server.insert(point)
            else:
                server.delete(point)
            os._exit(_CHILD_EXIT)
        if op == "insert":
            server.insert(point)
        else:
            server.delete(point)
        # The op is applied and (fsync_policy=always) durable: acknowledge.
        acks.write(json.dumps({"i": i, "op": op}) + "\n")
        acks.flush()
        os.fsync(acks.fileno())
    acks.close()
    server.close()
    return 0


def _run_child(directory: Path, seed, n, ops, epochs, kill_after, kill_mode,
               rebuild_at) -> int:
    src_root = Path(__file__).resolve().parents[2]  # .../src
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_FAULTS", None)  # the child arms its own faults
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.faults.chaos", "child",
            "--dir", str(directory), "--seed", str(seed), "--n", str(n),
            "--ops", str(ops), "--epochs", str(epochs),
            "--kill-after", str(kill_after), "--kill-mode", kill_mode,
            "--rebuild-at", str(rebuild_at),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    expected = _CHILD_EXIT if 0 <= kill_after < ops else 0
    if proc.returncode != expected:
        raise ChaosError(
            f"chaos child exited {proc.returncode} (expected {expected}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return proc.returncode


def _read_acks(directory: Path) -> int:
    path = directory / "acks.jsonl"
    if not path.exists():
        return 0
    count = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if entry["i"] != count:
                raise ChaosError(
                    f"acks file out of order: expected op {count}, got {entry['i']}"
                )
            count += 1
    return count


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def kill_and_recover(
    directory: str | Path,
    seed: int = 0,
    n: int = 400,
    ops: int = 48,
    epochs: int = 40,
    kill_after: int | None = None,
    kill_mode: str = "after-wal",
    rebuild_at: int | None = None,
) -> dict:
    """Process-level crash mid-schedule, then recovery from disk alone."""
    if kill_mode not in KILL_MODES:
        raise ValueError(f"kill_mode must be one of {KILL_MODES}, got {kill_mode!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed + 0xC4A5)
    if kill_after is None:
        kill_after = int(rng.integers(ops // 4, ops))
    if rebuild_at is None:
        rebuild_at = int(rng.integers(ops // 8, max(kill_after, ops // 8 + 1)))
    _run_child(directory, seed, n, ops, epochs, kill_after, kill_mode, rebuild_at)
    n_acked = _read_acks(directory)
    points = load_dataset(_DATASET, n, seed=seed)
    schedule = make_schedule(points, ops, seed)
    server = IndexServer.from_snapshot(directory, wal=True)
    try:
        m = verify_recovery(
            points, schedule, n_acked, server._gen.processor.current_points()
        )
        reference = _reference_processor(seed, n, epochs, schedule, m)
        _assert_query_parity(server, reference, schedule, m)
    finally:
        server.close()
    return {
        "scenario": f"kill-{kill_mode}",
        "kill_mode": kill_mode,
        "kill_after": kill_after,
        "rebuild_at": rebuild_at,
        "acked": n_acked,
        "recovered_prefix": m,
        "ok": True,
    }


def torn_snapshot(
    directory: str | Path,
    seed: int = 0,
    n: int = 400,
    ops: int = 32,
    epochs: int = 40,
) -> dict:
    """A torn snapshot write must quarantine + fall back, losing nothing."""
    directory = Path(directory)
    registry = get_fault_registry()
    registry.reset()
    index, points, config, factory = _build_index(seed, n, epochs)
    schedule = make_schedule(points, ops, seed)
    half = ops // 2
    server = IndexServer(
        index,
        elsi_config=config,
        index_factory=factory,
        snapshots=directory,
        wal=True,
    )
    for op, point in schedule[:half]:
        server.insert(point) if op == "insert" else server.delete(point)
    # Every attempt tears, retries included, so the corrupt file stays on
    # disk as the newest generation — the recovery target.
    registry.arm("snapshot.write", kind="torn_write", times=MAX_RETRIES + 1)
    server.rebuild_now()  # swap succeeds; the new snapshot lands torn
    if server.health == HEALTHY:
        raise ChaosError("torn snapshot save should have degraded the server")
    for op, point in schedule[half:]:
        server.insert(point) if op == "insert" else server.delete(point)
    server.close()  # crash boundary: recovery below uses only the disk

    recovered = IndexServer.from_snapshot(directory, wal=True)
    try:
        m = verify_recovery(
            points, schedule, ops, recovered._gen.processor.current_points()
        )
    finally:
        recovered.close()
    quarantined = sorted(p.name for p in directory.glob("*.corrupt"))
    if not quarantined:
        raise ChaosError("recovery did not quarantine the torn snapshot")
    return {
        "scenario": "torn-snapshot",
        "acked": ops,
        "recovered_prefix": m,
        "quarantined": quarantined,
        "faults": registry.report()["triggered"],
        "ok": True,
    }


def rebuild_crash_retry(
    directory: str | Path,
    seed: int = 0,
    n: int = 400,
    ops: int = 32,
    epochs: int = 40,
    crashes: int = 2,
) -> dict:
    """Rebuild attempts crash ``crashes`` times (at most the server's
    ``MAX_RETRIES``); retries must converge."""
    directory = Path(directory)
    registry = get_fault_registry()
    registry.reset()
    index, points, config, factory = _build_index(seed, n, epochs)
    schedule = make_schedule(points, ops, seed)
    server = IndexServer(
        index,
        elsi_config=config,
        index_factory=factory,
        snapshots=directory,
        wal=True,
    )
    for op, point in schedule[: ops // 2]:
        server.insert(point) if op == "insert" else server.delete(point)
    registry.arm("rebuild.worker", kind="error", times=crashes)
    old_generation = server.generation
    server.rebuild_now()
    if server.generation != old_generation + 1:
        raise ChaosError("rebuild did not swap a new generation in after retries")
    if server.health != HEALTHY:
        raise ChaosError(f"health should recover to healthy, is {server.health!r}")
    if registry.triggered("rebuild.worker") != crashes:
        raise ChaosError(
            f"expected {crashes} rebuild crashes, saw "
            f"{registry.triggered('rebuild.worker')}"
        )
    for op, point in schedule[ops // 2 :]:
        server.insert(point) if op == "insert" else server.delete(point)
    retries = {
        "rebuild": int(
            series_sum(server.stats.registry.export(), "serve.retries", op="rebuild")
        )
    }
    server.close()

    recovered = IndexServer.from_snapshot(directory, wal=True)
    try:
        m = verify_recovery(
            points, schedule, ops, recovered._gen.processor.current_points()
        )
    finally:
        recovered.close()
    return {
        "scenario": "rebuild-crash-retry",
        "acked": ops,
        "recovered_prefix": m,
        "rebuild_crashes": crashes,
        "retries": retries,
        "faults": registry.report()["triggered"],
        "ok": True,
    }


def _kill_scenario(kill_mode: str, seed_offset: int):
    """:func:`kill_and_recover` under one kill mode; each mode draws its
    kill point from its own seed, so the three modes kill at different ops."""

    def scenario(directory: str | Path, seed: int = 0, **kwargs) -> dict:
        return kill_and_recover(
            directory, seed=seed + seed_offset, kill_mode=kill_mode, **kwargs
        )

    return scenario


#: Every scenario, by the name ``python -m repro chaos --scenario`` takes.
SCENARIOS = {
    **{f"kill-{mode}": _kill_scenario(mode, i) for i, mode in enumerate(KILL_MODES)},
    "torn-snapshot": torn_snapshot,
    "rebuild-crash-retry": rebuild_crash_retry,
}


def run_scenarios(
    base_dir: str | Path, names: "list[str] | None" = None, seed: int = 0, **kwargs
) -> dict:
    """Run the named scenarios (default: all) under ``base_dir`` and
    return the combined JSON-able report; raises :class:`ChaosError` on
    the first acknowledged-update loss."""
    base_dir = Path(base_dir)
    reports = []
    for name in names or list(SCENARIOS):
        if name not in SCENARIOS:
            raise ValueError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
        reports.append(SCENARIOS[name](base_dir / name, seed=seed, **kwargs))
    return {
        "scenarios": reports,
        "fault_report": get_fault_registry().report(),
        "ok": all(r["ok"] for r in reports),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.faults.chaos")
    sub = parser.add_subparsers(dest="role", required=True)
    child = sub.add_parser("child", help="the crashing worker (internal)")
    child.add_argument("--dir", required=True)
    child.add_argument("--seed", type=int, default=0)
    child.add_argument("--n", type=int, default=400)
    child.add_argument("--ops", type=int, default=48)
    child.add_argument("--epochs", type=int, default=40)
    child.add_argument("--kill-after", type=int, default=-1)
    child.add_argument("--kill-mode", choices=KILL_MODES, default="before")
    child.add_argument("--rebuild-at", type=int, default=-1)
    args = parser.parse_args(argv)
    return _child_main(args)


if __name__ == "__main__":
    sys.exit(main())
