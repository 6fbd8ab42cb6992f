"""Trace analysis: load a JSONL trace, summarise phases, render span trees.

The ``python -m repro obs report`` CLI is a thin wrapper over this module:
:func:`load_trace` parses the JSON-lines file ``REPRO_TRACE`` produced,
:func:`phase_totals` aggregates wall-clock per span name (the per-phase
cost breakdown — method selection vs. training vs. error bounds vs. query
refinement, the decomposition Pai et al. show explains learned-index
performance), and :func:`render_tree` prints the nested span structure.

Spans land in the file at *exit* time, so children precede parents on
disk; tree construction keys off the recorded parent ids, not file order.
"""

from __future__ import annotations

import json

from repro.obs.trace import SpanRecord

__all__ = [
    "build_tree",
    "check_cross_process",
    "load_trace",
    "missing_spans",
    "phase_totals",
    "render_report",
    "render_tree",
    "request_ids",
    "request_spans",
]

#: Children :func:`render_tree` shows under one span; the rest are counted.
MAX_CHILDREN = 20


def load_trace(path: str) -> list[SpanRecord]:
    """Parse a JSONL trace file into span records (file order)."""
    records: list[SpanRecord] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(SpanRecord.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed span line: {exc}") from exc
    return records


def build_tree(
    records: list[SpanRecord],
) -> tuple[list[SpanRecord], dict[str, list[SpanRecord]]]:
    """Return ``(roots, children_by_parent_id)``, both sorted by start time.

    A span whose parent never completed (ring-buffer eviction, crash
    mid-span, an adopted batch whose adoptive parent was evicted) is
    promoted to a root with an ``orphan=true`` attribute rather than
    dropped — the span is real work; only its causal link is lost.
    """
    by_id = {r.span_id: r for r in records}
    roots: list[SpanRecord] = []
    children: dict[str, list[SpanRecord]] = {}
    for r in records:
        if r.parent_id is not None and r.parent_id in by_id:
            children.setdefault(r.parent_id, []).append(r)
        else:
            if r.parent_id is not None:
                r.attrs.setdefault("orphan", True)
            roots.append(r)
    roots.sort(key=lambda r: r.start)
    for siblings in children.values():
        siblings.sort(key=lambda r: r.start)
    return roots, children


def phase_totals(records: list[SpanRecord]) -> dict[str, dict]:
    """Aggregate per span name: count, total/mean/max seconds, self seconds.

    ``self_seconds`` subtracts the time attributed to a span's (recorded)
    children, so nested phases don't double-count in the breakdown.
    """
    child_time: dict[str, float] = {}
    for r in records:
        if r.parent_id is not None:
            child_time[r.parent_id] = child_time.get(r.parent_id, 0.0) + r.duration
    totals: dict[str, dict] = {}
    for r in records:
        entry = totals.setdefault(
            r.name,
            {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0, "self_seconds": 0.0},
        )
        entry["count"] += 1
        entry["total_seconds"] += r.duration
        entry["self_seconds"] += max(0.0, r.duration - child_time.get(r.span_id, 0.0))
        if r.duration > entry["max_seconds"]:
            entry["max_seconds"] = r.duration
    for entry in totals.values():
        entry["mean_seconds"] = entry["total_seconds"] / entry["count"]
    return totals


def missing_spans(records: list[SpanRecord], required: list[str]) -> list[str]:
    """The required span names absent from the trace (CI smoke assertion)."""
    present = {r.name for r in records}
    return [name for name in required if name not in present]


def request_ids(records: list[SpanRecord]) -> list[str]:
    """Every distinct ``request_id`` attribute in the trace (span order)."""
    seen: dict[str, None] = {}
    for r in records:
        rid = r.attrs.get("request_id")
        if rid is not None:
            seen.setdefault(str(rid), None)
    return list(seen)


def request_spans(records: list[SpanRecord], request_id: str) -> list[SpanRecord]:
    """One request's spans: every span tagged with the id, plus all of
    their descendants (the cross-process tree the router adopted)."""
    children: dict[str, list[SpanRecord]] = {}
    for r in records:
        if r.parent_id is not None:
            children.setdefault(r.parent_id, []).append(r)
    tagged = [r for r in records if str(r.attrs.get("request_id")) == request_id]
    keep: dict[str, SpanRecord] = {}
    frontier = list(tagged)
    while frontier:
        rec = frontier.pop()
        if rec.span_id in keep:
            continue
        keep[rec.span_id] = rec
        frontier.extend(children.get(rec.span_id, ()))
    return [r for r in records if r.span_id in keep]


def check_cross_process(
    records: list[SpanRecord], root_name: str, child_name: str
) -> "str | None":
    """CI assertion for cross-process propagation: some ``root_name`` span
    must have a ``child_name`` descendant from a *different pid* sharing
    the root's ``trace_id``.  Returns an error message, or None on pass."""
    children: dict[str, list[SpanRecord]] = {}
    for r in records:
        if r.parent_id is not None:
            children.setdefault(r.parent_id, []).append(r)
    roots = [r for r in records if r.name == root_name]
    if not roots:
        return f"no {root_name!r} spans in the trace"
    saw_child = saw_remote = False
    for root in roots:
        frontier = list(children.get(root.span_id, ()))
        seen: set[str] = set()
        while frontier:
            rec = frontier.pop()
            if rec.span_id in seen:
                continue
            seen.add(rec.span_id)
            frontier.extend(children.get(rec.span_id, ()))
            if rec.name != child_name:
                continue
            saw_child = True
            if rec.pid != root.pid:
                saw_remote = True
                if rec.trace_id == root.trace_id and root.trace_id is not None:
                    return None
    if not saw_child:
        return (
            f"no {root_name!r} span has a {child_name!r} descendant "
            "(trace context did not reach the workers)"
        )
    if not saw_remote:
        return (
            f"every {child_name!r} descendant of {root_name!r} ran in the "
            "same process (no cross-process spans were adopted)"
        )
    return (
        f"cross-process {child_name!r} spans exist but none shares its "
        f"{root_name!r} root's trace_id"
    )


def _format_attrs(attrs: dict, limit: int = 4) -> str:
    if not attrs:
        return ""
    shown = list(attrs.items())[:limit]
    text = ", ".join(f"{k}={v}" for k, v in shown)
    if len(attrs) > limit:
        text += ", ..."
    return f" [{text}]"


def render_tree(
    records: list[SpanRecord],
    max_depth: int = 12,
    min_seconds: float = 0.0,
) -> str:
    """The nested span structure as an indented text tree; a span shows
    at most :data:`MAX_CHILDREN` of its children."""
    roots, children = build_tree(records)
    lines: list[str] = []

    def emit(record: SpanRecord, depth: int) -> None:
        if record.duration < min_seconds and depth > 0:
            return
        indent = "  " * depth
        lines.append(
            f"{indent}{record.name}  {record.duration * 1e3:9.3f} ms"
            f"{_format_attrs(record.attrs)}"
        )
        if depth + 1 >= max_depth:
            return
        kids = children.get(record.span_id, [])
        for child in kids[:MAX_CHILDREN]:
            emit(child, depth + 1)
        if len(kids) > MAX_CHILDREN:
            lines.append(f"{'  ' * (depth + 1)}... ({len(kids) - MAX_CHILDREN} more)")

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)


def render_phase_table(records: list[SpanRecord]) -> str:
    """The per-phase cost breakdown as an aligned text table."""
    totals = phase_totals(records)
    if not totals:
        return "(no spans)"
    rows = sorted(totals.items(), key=lambda kv: -kv[1]["total_seconds"])
    name_w = max(len("phase"), max(len(name) for name in totals))
    header = (
        f"{'phase':<{name_w}}  {'count':>7}  {'total':>10}  {'self':>10}"
        f"  {'mean':>10}  {'max':>10}"
    )
    lines = [header, "-" * len(header)]
    for name, entry in rows:
        lines.append(
            f"{name:<{name_w}}  {entry['count']:>7d}"
            f"  {entry['total_seconds'] * 1e3:>8.2f}ms"
            f"  {entry['self_seconds'] * 1e3:>8.2f}ms"
            f"  {entry['mean_seconds'] * 1e3:>8.2f}ms"
            f"  {entry['max_seconds'] * 1e3:>8.2f}ms"
        )
    return "\n".join(lines)


def render_report(
    records: list[SpanRecord],
    max_depth: int = 12,
    min_seconds: float = 0.0,
) -> str:
    """Phase breakdown followed by the span tree — the CLI's output."""
    n_processes = len({r.pid for r in records})
    parts = [
        f"{len(records)} spans from {n_processes} process(es)",
        "",
        "Per-phase cost breakdown",
        render_phase_table(records),
        "",
        "Span tree",
        render_tree(records, max_depth=max_depth, min_seconds=min_seconds),
    ]
    return "\n".join(parts)
