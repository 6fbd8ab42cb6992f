"""Regenerate key paper figures as terminal charts.

Runs the experiment grid (or resumes / re-reads its rows file — a complete
file builds nothing) and renders Figure 8 (build time vs data
distribution), Figure 9 (build time vs lambda) and Figure 15(b) (point
query time vs insertion ratio) from the same views EXPERIMENTS.md is
rendered from, with the ASCII plot helpers.

Run:  python examples/reproduce_figures.py          (~1 minute)
      REPRO_SCALE=default python examples/reproduce_figures.py  (slower)
"""

from __future__ import annotations

import numpy as np

from repro.bench.experiments import run_grid
from repro.bench.harness import ExperimentScale
from repro.bench.plots import bar_chart, line_chart
from repro.bench.views import by_seed, mean_ratios, methods_chosen, rebuild_counts, tables


def main() -> None:
    scale = ExperimentScale.from_env()
    path = f"experiments-{scale.name}.jsonl"
    print(f"Scale: {scale.name} (n={scale.n:,}, seeds {scale.seeds}); rows in {path} ...\n")
    data = by_seed(run_grid(scale, path, log=print))
    t = tables(data)

    def series(table: str, row: str) -> list[float]:
        return [t[table].med(row, col) for col in t[table].cols]

    # ------------------------------------------------------------------
    print("=" * 72)
    for dataset in ("OSM1", "NYC"):
        print(bar_chart(
            t["fig8"].cols, series("fig8", dataset),
            title=f"Figure 8 (shape): build time on {dataset} (s)",
            unit="s",
        ))
        print()
    speedup = np.median(mean_ratios(data, "build_seconds", invert=True))
    print(f"mean ELSI build speedup: {speedup:.1f}x (paper: ~70x at n=1e8)\n")

    # ------------------------------------------------------------------
    print("=" * 72)
    lams = [float(col.removeprefix("lam=")) for col in t["fig9_OSM1"].cols]
    print(line_chart(
        {label: list(zip(lams, series("fig9_OSM1", label))) for (label,) in t["fig9_OSM1"].cells},
        title="Figure 9 (shape): build time (s) vs lambda on OSM1 (log y)",
        log_y=True,
    ))
    print(f"\nmethods chosen: lambda=0 -> {methods_chosen(data, 'OSM1', lams[0])}, "
          f"lambda=1 -> {methods_chosen(data, 'OSM1', lams[-1])}\n")

    # ------------------------------------------------------------------
    print("=" * 72)
    ratios = [float(col.rstrip("%")) / 100 for col in t["fig15b"].cols]
    print(line_chart(
        {label: list(zip(ratios, series("fig15b", label)))
         for label in ("ML-F", "ML-R", "LISA-F", "LISA-R", "RR*")},
        title="Figure 15(b) (shape): point query (us) vs insertion ratio",
    ))
    print(f"\nseeds that rebuilt, per insert ratio: {rebuild_counts(data)}")
    print("(paper: rebuilds keep -R query times below the -F variants)")


if __name__ == "__main__":
    main()
