"""Every public function, method and class of ``src/repro`` has a reader.

A name counts as read where it appears as a ``Name``, an ``Attribute`` or
a call's keyword anywhere in ``src``, ``tests``, ``benchmarks`` or
``examples``.  Its own definition, an ``import`` of it and an ``__all__``
string are not reads: an exported function that nothing calls is dead
code all the same.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src", "tests", "benchmarks", "examples")


def _trees(*dirs):
    for directory in dirs:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _read_names() -> set[str]:
    names = set()
    for _, tree in _trees(*READERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
    return names


def test_every_public_definition_is_read_somewhere():
    read = _read_names()
    unread = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path, tree in _trees("src/repro")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert not unread, "public definitions nothing reads:\n" + "\n".join(unread)
