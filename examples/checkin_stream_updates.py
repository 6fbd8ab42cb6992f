"""A check-in stream with skewed insertions and predictor-driven rebuilds.

This is the paper's Figure 1 scenario: an index built on historical
check-ins degrades as a burst of check-ins arrives from one small region
(a festival, say).  The example:

1. builds an RSMI index on historical OSM-like check-ins through ELSI,
2. streams in heavily skewed new check-ins through the update processor,
3. tracks the CDF drift ``sim(D', D)`` and the ``to_rebuild`` decision,
4. compares point-query latency with and without the triggered rebuild
   (the -F vs -R contrast of Figure 15).

Run:  python examples/checkin_stream_updates.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import ELSI, ELSIConfig, RSMIIndex
from repro.data import load_dataset
from repro.data.generators import skewed

N_HISTORY = 10_000
N_STREAM = 6_000
BATCH = 1_500


def query_latency(processor, sample: np.ndarray) -> float:
    started = time.perf_counter()
    for p in sample:
        processor.point_query(p)
    return (time.perf_counter() - started) / len(sample) * 1e6


def main() -> None:
    print(f"Building an RSMI index on {N_HISTORY:,} historical check-ins ...")
    history = load_dataset("OSM1", N_HISTORY)
    elsi = ELSI(ELSIConfig(lam=0.8, train_epochs=250, f_u=500))

    index_f = elsi.build(RSMIIndex, history, method="RS")
    index_r = elsi.build(RSMIIndex, history, method="RS")
    no_rebuild = elsi.updates(index_f)   # the "-F" configuration
    with_rebuild = elsi.updates(index_r)  # the "-R" configuration

    print(f"Streaming {N_STREAM:,} skewed check-ins (one festival district) ...\n")
    stream = skewed(N_STREAM, seed=11)
    rng = np.random.default_rng(0)

    header = f"{'inserted':>9} {'sim(D_prime,D)':>15} {'to_rebuild':>11} " \
             f"{'F query (us)':>13} {'R query (us)':>13} {'rebuilds':>9}"
    print(header)
    print("-" * len(header))
    for start in range(0, N_STREAM, BATCH):
        batch = stream[start : start + BATCH]
        for p in batch:
            no_rebuild.insert(p)
            with_rebuild.insert(p)

        # Capture the CDF-change feature *before* a rebuild resets the
        # baseline snapshot.
        sim = with_rebuild.update_features()[4]
        decision = with_rebuild.to_rebuild()
        seconds = with_rebuild.rebuild() if decision else 0.0

        sample_ids = rng.integers(0, len(history), size=400)
        sample = np.vstack([history[sample_ids], batch[:100]])
        f_us = query_latency(no_rebuild, sample)
        r_us = query_latency(with_rebuild, sample)
        total = start + len(batch)
        note = f" (rebuilt in {seconds:.2f}s)" if decision else ""
        print(f"{total:>9,} {sim:>15.3f} {str(decision):>11} "
              f"{f_us:>13.1f} {r_us:>13.1f} {with_rebuild.rebuilds:>9}{note}")

    print("\nFinal comparison (Figure 15's -F vs -R contrast):")
    sample = np.vstack([history[::20], stream[::20]])
    f_us = query_latency(no_rebuild, sample)
    r_us = query_latency(with_rebuild, sample)
    print(f"  no rebuilds  (RSMI-F): {f_us:7.1f} us/query, side list holds "
          f"{no_rebuild.n_pending:,} points")
    print(f"  with rebuilds (RSMI-R): {r_us:7.1f} us/query after "
          f"{with_rebuild.rebuilds} rebuild(s)")
    if r_us < f_us:
        print(f"  -> rebuilds cut point-query latency by "
              f"{100 * (1 - r_us / f_us):.0f}% "
              f"(paper reports 47% for RSMI-R at 512% insertions)")


if __name__ == "__main__":
    main()
