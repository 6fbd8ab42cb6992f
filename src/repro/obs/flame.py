"""Flame graphs over the obs span stream.

The profiler-guided kernel pass needs to see *where* wall-clock goes: not
just per-phase totals (:mod:`repro.obs.report`) but the full hierarchy —
is ``query.window_batch`` time spent in model prediction or in scan
refinement, and under which build phase?  This module turns a recorded
span trace into the two standard flame-graph forms:

- **folded stacks** (:func:`folded_stacks` / :func:`render_folded`): one
  line per root-to-span path with its *self* time, the input format of
  Brendan Gregg's ``flamegraph.pl`` and of speedscope's "folded" importer;
- **an SVG icicle graph** (:func:`render_svg`): a self-contained,
  dependency-free rendering for quick browser viewing, written by
  ``python -m repro obs flame``.
"""

from __future__ import annotations

import hashlib
from xml.sax.saxutils import escape

from repro.obs.report import build_tree
from repro.obs.trace import SpanRecord

__all__ = [
    "folded_stacks",
    "render_folded",
    "render_svg",
    "top_paths",
]

#: Pixel height of one frame row of the SVG icicle.
ROW_HEIGHT = 18
#: Frames narrower than this share of the total are left out of the SVG.
MIN_FRACTION = 0.001


def folded_stacks(records: list[SpanRecord]) -> dict[str, float]:
    """Collapse a span trace to ``{"root;child;...": self_seconds}``.

    Each span contributes its *self* time (duration minus recorded
    children, clamped at zero) to its full root-to-span name path, so the
    values sum to total traced wall-clock and nested phases never double
    count.  Identical paths from repeated spans merge.
    """
    roots, children = build_tree(records)
    out: dict[str, float] = {}

    def visit(record: SpanRecord, prefix: str) -> None:
        path = f"{prefix};{record.name}" if prefix else record.name
        kids = children.get(record.span_id, [])
        self_seconds = max(0.0, record.duration - sum(k.duration for k in kids))
        out[path] = out.get(path, 0.0) + self_seconds
        for kid in kids:
            visit(kid, path)

    for root in roots:
        visit(root, "")
    return out


def render_folded(stacks: dict[str, float]) -> str:
    """Folded stacks as text: ``path value`` per line, heaviest first.

    Values are in microseconds, rounded — ``flamegraph.pl`` and speedscope
    both expect integer sample counts.
    """
    lines = [
        f"{path} {max(1, round(seconds * 1e6))}"
        for path, seconds in sorted(stacks.items(), key=lambda kv: -kv[1])
    ]
    return "\n".join(lines)


def top_paths(stacks: dict[str, float], limit: int = 10) -> list[tuple[str, float]]:
    """The heaviest ``limit`` paths by self time, for terminal summaries."""
    return sorted(stacks.items(), key=lambda kv: -kv[1])[:limit]


# ----------------------------------------------------------------------
# SVG icicle rendering (pure stdlib)
# ----------------------------------------------------------------------
class _Frame:
    """One rectangle of the icicle: a path segment and its subtree total."""

    __slots__ = ("name", "total", "self_seconds", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.self_seconds = 0.0
        self.children: dict[str, _Frame] = {}


def _frame_tree(stacks: dict[str, float]) -> _Frame:
    root = _Frame("all")
    for path, seconds in stacks.items():
        node = root
        node.total += seconds
        for part in path.split(";"):
            node = node.children.setdefault(part, _Frame(part))
            node.total += seconds
        node.self_seconds += seconds
    return root


def _color(name: str) -> str:
    """Deterministic warm color per frame name (same name = same color)."""
    digest = hashlib.sha1(name.encode()).digest()
    r = 205 + digest[0] % 50
    g = 60 + digest[1] % 130
    b = digest[2] % 60
    return f"rgb({r},{g},{b})"


def render_svg(stacks: dict[str, float], width: int = 1200) -> str:
    """A self-contained SVG icicle flame graph (root on top).

    Rect widths are proportional to subtree time; frames narrower than
    :data:`MIN_FRACTION` of the total are dropped.  Every rect carries a
    ``<title>`` tooltip with the exact time and share, so the SVG is
    explorable in any browser without JavaScript.
    """
    root = _frame_tree(stacks)
    total = root.total
    if total <= 0.0:
        total = 1e-12
    depth_limit = 1
    rects: list[str] = []

    def emit(frame: _Frame, x: float, depth: int, scale: float) -> None:
        nonlocal depth_limit
        depth_limit = max(depth_limit, depth + 1)
        w = frame.total * scale
        y = depth * ROW_HEIGHT
        share = frame.total / total
        title = (
            f"{frame.name}: {frame.total * 1e3:.3f} ms "
            f"({share * 100.0:.2f}%), self {frame.self_seconds * 1e3:.3f} ms"
        )
        rects.append(
            f'<g><title>{escape(title)}</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{max(w, 0.5):.2f}" '
            f'height="{ROW_HEIGHT - 1}" fill="{_color(frame.name)}" rx="1"/>'
            + (
                f'<text x="{x + 3:.2f}" y="{y + ROW_HEIGHT - 6}" '
                f'font-size="11" font-family="monospace">'
                f"{escape(frame.name[: max(1, int(w / 7))])}</text>"
                if w > 20
                else ""
            )
            + "</g>"
        )
        cx = x
        for child in sorted(frame.children.values(), key=lambda f: -f.total):
            if child.total / total < MIN_FRACTION:
                continue
            emit(child, cx, depth + 1, scale)
            cx += child.total * scale
    emit(root, 0.0, 0, width / total)
    height = depth_limit * ROW_HEIGHT + 4
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        f'<rect width="{width}" height="{height}" fill="#fdf6ec"/>'
        + "".join(rects)
        + "</svg>"
    )
