"""``run.py compare A.json B.json``: is B worse than A by more than a bound?

A and B are files of run results (one JSON object, a JSON list, or one
object per line as ``run.py --out`` appends them); A is the base.  For each
workload and gated metric the tool prints both medians with quartiles, the
ratio B/A, and a verdict from the bounds in ``BENCHMARK.json``:

- ``ok``          B's median is not worse than A's by more than the bound;
- ``regressed``   it is, and the spread does not explain it;
- ``unresolved``  the run-to-run spread (quartile distance over median, of
                  either side) is wider than the bound and the runs overlap,
                  so the sets cannot tell.

With one run on a side, its own per-round quartiles stand in for the
run-to-run spread.  Exit status 1 when any pair regressed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_runs(path: str) -> list[dict]:
    text = Path(path).read_text().strip()
    try:
        loaded = json.loads(text)
        runs = loaded if isinstance(loaded, list) else [loaded]
    except json.JSONDecodeError:
        runs = [json.loads(line) for line in text.splitlines() if line.strip()]
    return [r for r in runs if not r.get("trace")]


def side(runs: list[dict], workload: str, metric: str):
    """(values, q1, median, q3) of one metric over one side's runs."""
    details = [r["metrics"][metric] for r in runs
               if r["workload"] == workload and metric in r["metrics"]]
    values = [d["value"] for d in details]
    if not values:
        return None
    if len(values) == 1:
        d = details[0]
        return values, d.get("q1", d["value"]), d["value"], d.get("q3", d["value"])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return values, q1, statistics.median(values), q3


def verdict(a, b, better: str, bound: float) -> tuple[str, float]:
    a_values, a_q1, a_med, a_q3 = a
    b_values, b_q1, b_med, b_q3 = b
    lower = better == "lower"
    worse_by = (b_med - a_med) / a_med if lower else (a_med - b_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if lower:
        all_better, all_worse = max(b_values) < min(a_values), min(b_values) > max(a_values)
    else:
        all_better, all_worse = min(b_values) > max(a_values), max(b_values) < min(a_values)
    if all_better:
        return "ok", worse_by
    if spread > bound:
        return ("regressed" if all_worse and worse_by > bound else "unresolved"), worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def main(argv: list[str], spec: dict) -> int:
    """``spec`` is the parsed ``BENCHMARK.json`` (workloads, metrics, bounds)."""
    if len(argv) != 2:
        print(__doc__)
        return 2
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    print(f"base A = {argv[0]} ({len(runs_a)} runs), B = {argv[1]} ({len(runs_b)} runs)")
    print(f"{'workload':<22}{'metric':<13}{'A median [q1, q3]':>42}{'B median [q1, q3]':>42}"
          f"{'B/A':>8}{'worse by':>10}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            a, b = side(runs_a, workload, m["name"]), side(runs_b, workload, m["name"])
            if a is None or b is None:
                continue
            word, worse_by = verdict(a, b, m["better"], m["bound"])
            counts[word] += 1
            show = lambda s: f"{s[2]:.5g} [{s[1]:.5g}, {s[3]:.5g}] n={len(s[0])}"  # noqa: E731
            print(f"{workload:<22}{m['name']:<13}{show(a):>42}{show(b):>42}"
                  f"{b[2] / a[2]:>8.3f}{worse_by:>+10.1%}{m['bound']:>7.0%}  {word}")
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, {counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 0

