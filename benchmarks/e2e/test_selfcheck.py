"""Self-check of the benchmark at smoke scale (n = 5 000, one round).

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e``; not part of tier-1.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Counts that must repeat bit-for-bit for a seed (marked exact in README.md).
EXACT = (
    "core.methods.train_set_size",
    "indices.n_models",
    "indices.point.model_invocations_per_q",
    "indices.point.points_scanned_per_q",
    "indices.window.scanned_per_result",
    "indices.knn.scanned_per_result",
    "indices.error_width",
    "storage.snapshot_bytes_per_point",
    "shard.window_fanout",
    "shard.knn_round2_frac",
)


def adopt_orphans() -> bool:
    """Make this process the parent of whatever a run leaves behind (Linux
    ``PR_SET_CHILD_SUBREAPER``), so that a leftover shows as a child here."""
    try:
        return ctypes.CDLL("libc.so.6", use_errno=True).prctl(36, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


ADOPTS = adopt_orphans()


def assert_nothing_left_running() -> None:
    """The run stopped and reaped every process it started (the shard
    workers and multiprocessing's resource tracker)."""
    if not ADOPTS:
        return
    with pytest.raises(ChildProcessError):  # no child, running or ended
        os.waitpid(-1, os.WNOHANG)


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert_nothing_left_running()
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result["metrics"]


def check_metrics(metrics: dict, declared: list[dict]) -> None:
    assert list(metrics) == [m["name"] for m in declared]  # each once, none extra
    for m in declared:
        assert NAME.match(m["name"])
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload):
    end_to_end = run(workload, 0)
    check_metrics(end_to_end, SPEC["end_to_end"])
    assert all(end_to_end[m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    first, second = run(workload, 1), run(workload, 1)
    check_metrics(first, SPEC["per_layer"])
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
