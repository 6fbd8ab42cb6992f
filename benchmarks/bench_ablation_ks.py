"""Ablation — the Section III KS-distance algorithm choice.

The paper replaces the classical O(n_S + n) merge scan with an
O(n_S log n) binary-search scan over the small set only, arguing it wins
because n_S << n.  This benchmark verifies both the correctness equivalence
and the performance claim, and locates the regime where it holds.
"""

import numpy as np

from repro.bench.harness import format_table, timed
from repro.spatial.cdf import ks_distance, ks_distance_reference


def test_ablation_ks_distance(ctx):
    rng = np.random.default_rng(0)
    n = max(ctx.scale.n * 10, 100_000)
    large = np.sort(rng.random(n))

    rows = []
    for n_s in (100, 1_000, 10_000, n // 2):
        small = np.sort(rng.random(n_s))
        fast, fast_seconds = timed(lambda: ks_distance(small, large, assume_sorted=True))
        ref, ref_seconds = timed(lambda: ks_distance_reference(small, large))
        rows.append(
            {
                "n_s": n_s,
                "fast_us": fast_seconds * 1e6,
                "reference_us": ref_seconds * 1e6,
                "agree": abs(fast - ref) < 1e-12,
            }
        )

    print()
    print(format_table(
        ["n_S", "O(n_S log n) (us)", "O(n_S + n) (us)", "agree"],
        [[r["n_s"], f"{r['fast_us']:.0f}", f"{r['reference_us']:.0f}", r["agree"]] for r in rows],
        title=f"Ablation: KS algorithms, n = {n:,}",
    ))

    assert all(r["agree"] for r in rows)
    # The paper's claim: for n_S << n, the binary-search variant wins.
    small_regime = [r for r in rows if r["n_s"] <= 1_000]
    assert all(r["fast_us"] < r["reference_us"] for r in small_regime)
