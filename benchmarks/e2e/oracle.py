"""Brute-force oracle and failure accounting.

Answers are checked against NumPy scans of the raw data, never against
another code path of ``repro``: set membership for point lookups, a
rectangle mask for windows (compared as multisets of rows), and the k
smallest distances for kNN (compared as sorted distance vectors, which is
invariant under the order the program gives to equidistant points).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tally", "check_knn", "check_points", "check_windows", "sample_ids"]

#: Answers checked per query kind and workload (the issue asks for >= 200).
SAMPLE = 256


class Tally:
    """Operations attempted and failed (exceptions, timeouts, refusals,
    wrong answers), with the first few failures kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def fail(self, what: str, n: int = 1, wrong: bool = False) -> None:
        self.failed += n
        if wrong:
            self.wrong += n
        if len(self.notes) < 10:
            self.notes.append(what)


def sample_ids(rng: np.random.Generator, total: int, size: int = SAMPLE) -> np.ndarray:
    """A seed-chosen sample of answer positions (all of them when few)."""
    if total <= size:
        return np.arange(total)
    return np.sort(rng.choice(total, size=size, replace=False))


def check_points(data, probes, answers, ids, tally: Tally, label: str) -> None:
    x, y = np.ascontiguousarray(data[:, 0]), np.ascontiguousarray(data[:, 1])
    for i in ids:
        truth = bool(np.any((x == probes[i][0]) & (y == probes[i][1])))
        if bool(answers[i]) != truth:
            tally.fail(f"{label}: point {i} answered {answers[i]}, truth {truth}", wrong=True)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 2)
    return rows[np.lexsort(rows.T[::-1])]


def check_windows(data, windows, answers, ids, tally: Tally, label: str) -> None:
    x, y = np.ascontiguousarray(data[:, 0]), np.ascontiguousarray(data[:, 1])
    for i in ids:
        (x_lo, y_lo), (x_hi, y_hi) = windows[i].lo_array, windows[i].hi_array
        mask = (x >= x_lo) & (x <= x_hi) & (y >= y_lo) & (y <= y_hi)
        if not np.array_equal(_sorted_rows(answers[i]), _sorted_rows(data[mask])):
            tally.fail(
                f"{label}: window {i} returned {len(answers[i])} rows, truth {int(mask.sum())}",
                wrong=True,
            )


def _distances(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    diff = np.asarray(rows, dtype=np.float64).reshape(-1, 2) - q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def check_knn(data, queries, k: int, answers, ids, tally: Tally, label: str) -> None:
    for i in ids:
        dist = _distances(data, queries[i])
        truth = np.sort(np.partition(dist, k - 1)[:k]) if len(dist) > k else np.sort(dist)
        got = np.sort(_distances(answers[i], queries[i]))
        if len(got) != len(truth) or not np.allclose(got, truth, rtol=0.0, atol=1e-12):
            tally.fail(f"{label}: kNN {i} distances differ from brute force", wrong=True)
