"""Terminal plotting for experiment output (no plotting libraries offline).

Renders the paper's figure shapes as text: grouped bar charts for the
"vs data distribution" figures and multi-series line charts for the
"vs lambda / vs ratio" figures.  Used by the examples and available to the
benchmarks for eyeballing shapes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bar_chart", "line_chart"]

_TICKS = "▏▎▍▌▋▊▉█"
#: Cells the longest bar of a :func:`bar_chart` fills.
_BAR_WIDTH = 40


def _bar(value: float, max_value: float, width: int) -> str:
    """A unicode bar of ``value`` scaled so ``max_value`` fills ``width``."""
    if max_value <= 0:
        return ""
    cells = value / max_value * width
    full = int(cells)
    frac = cells - full
    bar = "█" * full
    if frac > 1e-9 and full < width:
        bar += _TICKS[min(int(frac * 8), 7)]
    return bar


def bar_chart(
    labels: list[str],
    values: list[float],
    title: str = "",
    unit: str = "",
) -> str:
    """A horizontal bar chart, one row per label."""
    if len(labels) != len(values):
        raise ValueError(f"{len(labels)} labels vs {len(values)} values")
    if not labels:
        raise ValueError("need at least one bar")
    max_value = max(values)
    label_width = max(len(l) for l in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        lines.append(
            f"{label.ljust(label_width)} "
            f"{_bar(value, max_value, _BAR_WIDTH).ljust(_BAR_WIDTH)} "
            f"{value:g}{unit}"
        )
    return "\n".join(lines)


def line_chart(
    series: dict[str, list[tuple[float, float]]],
    title: str = "",
    width: int = 60,
    height: int = 12,
    log_y: bool = False,
) -> str:
    """An ASCII line chart of (x, y) series; one glyph per series.

    Good enough to see the paper's shapes (monotone decrease with lambda,
    growth with insertion ratio, crossovers) without matplotlib.
    """
    if not series:
        raise ValueError("need at least one series")
    glyphs = "ox+*#@%&"
    all_points = [(x, y) for pts in series.values() for x, y in pts]
    if not all_points:
        raise ValueError("series contain no points")
    xs = np.array([p[0] for p in all_points], dtype=np.float64)
    ys = np.array([p[1] for p in all_points], dtype=np.float64)
    if log_y:
        if np.any(ys <= 0):
            raise ValueError("log_y requires positive y values")
        ys = np.log10(ys)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0

    grid = [[" "] * width for _ in range(height)]
    for i, (name, pts) in enumerate(series.items()):
        glyph = glyphs[i % len(glyphs)]
        for x, y in pts:
            yy = np.log10(y) if log_y else y
            col = int((x - x_lo) / x_span * (width - 1))
            row = int((yy - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = glyph

    lines = [title] if title else []
    y_top = 10**y_hi if log_y else y_hi
    y_bottom = 10**y_lo if log_y else y_lo
    lines.append(f"{y_top:10.3g} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{y_bottom:10.3g} ┤" + "".join(grid[-1]))
    lines.append(" " * 12 + "└" + "─" * width)
    lines.append(f"{'':12}{x_lo:<10.3g}{'':{max(width - 20, 1)}}{x_hi:>10.3g}")
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {name}" for i, name in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
