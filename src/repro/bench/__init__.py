"""The paper's evaluation (Section VII), run once and read by every figure.

- :mod:`repro.bench.harness` — scale presets, the timing rule, text tables,
- :mod:`repro.bench.experiments` — the cell grid, the cell function and the
  resumable rows file,
- :mod:`repro.bench.views` — Tables I–II and Figures 6–16 as functions of
  the rows, their shape checks, and the EXPERIMENTS.md renderer,
- :mod:`repro.bench.plots` — terminal charts for the examples.
"""

from repro.bench.harness import ExperimentScale, format_table, timed

__all__ = ["ExperimentScale", "format_table", "timed"]
