"""The span table of docs/observability.md names exactly the spans the
code opens: every ``span("...")`` / ``_span("...")`` call in ``src/repro``
has a row, and every row names a span some call opens."""

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
DOC = SRC.parents[1] / "docs" / "observability.md"


def _opened_spans():
    """``{span name: [file:line, ...]}`` over every span call of the package."""
    opened = {}
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in ("span", "_span"):
                continue
            first = node.args[0] if node.args else None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                opened.setdefault(first.value, []).append(f"{where}:{node.lineno}")
            else:
                # Only the tracer's own ``span(name)`` passes a name through.
                assert where == "obs/trace.py", f"{where}:{node.lineno}: span name is not a literal"
    return opened


def _table_spans():
    """Every backticked name in the first column of "What is instrumented"."""
    section = DOC.read_text().split("## What is instrumented", 1)[1]
    rows = re.findall(r"^\| (`.*?) \|", section.split("\n## ", 1)[0], flags=re.M)
    return {name for row in rows for name in re.findall(r"`([^`]+)`", row)}


def test_every_opened_span_has_a_row():
    opened = _opened_spans()
    assert opened, "found no span calls"
    missing = {name: sites for name, sites in opened.items() if name not in _table_spans()}
    assert not missing, f"spans missing from docs/observability.md: {missing}"


def test_every_row_names_an_opened_span():
    stale = _table_spans() - set(_opened_spans())
    assert not stale, f"docs/observability.md lists spans no code opens: {sorted(stale)}"
