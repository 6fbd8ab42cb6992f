"""Every serving knob has a caller outside the tests.

A settable value — a ``ServeConfig`` field, or a keyword parameter with a
default of ``IndexServer``, ``IndexServer.from_snapshot``,
``UpdateProcessor``, ``build_cluster`` or ``open_cluster`` — earns its
place only if code outside ``tests/`` sets it to something other than its
default.  A value that only tests move is a branch nothing ships: make it
a module constant, or delete it.  ``src/repro/faults/chaos.py`` counts as
a test: its scenarios are fault-injection tests run from the command line.

The census is an AST walk over ``src``, ``benchmarks``, ``examples`` and
``tests``.  A call's keyword arguments, its positional arguments (mapped
by the signature) and ``**NAME`` expansions of module-level dict literals
all count as settings; so do the keys of ``build_cluster``'s ``serve=``
dict, which every shard worker passes to ``ServeConfig``.  A value the
walk cannot read (a variable, a call) counts as non-default.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_FILES = ("tests/", "src/repro/faults/chaos.py")

#: Callee spelling -> (defining file, qualified name of the signature).
TARGETS = {
    "ServeConfig": ("src/repro/serve/server.py", "ServeConfig"),
    "IndexServer": ("src/repro/serve/server.py", "IndexServer.__init__"),
    "IndexServer.from_snapshot": ("src/repro/serve/server.py", "IndexServer.from_snapshot"),
    "UpdateProcessor": ("src/repro/core/update_processor.py", "UpdateProcessor.__init__"),
    "build_cluster": ("src/repro/shard/cluster.py", "build_cluster"),
    "open_cluster": ("src/repro/shard/cluster.py", "open_cluster"),
}

#: Values only tests move, kept on purpose: ``(callee, parameter) -> why``.
ALLOWED = {
    ("ServeConfig", "max_wait_seconds"):
        "the frozen e2e workload definitions pass it, at its one legal value 0",
    ("build_cluster", "index"):
        "the frozen e2e shard workload passes it (ZM); a cluster serves any "
        "of the five learned indices, and the tier's tests build RSMI",
}

_MISSING = object()


def _trees():
    for directory in ("src", "benchmarks", "examples", "tests"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            yield rel, ast.parse(path.read_text(), filename=rel)


def _literal(node):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return _MISSING


def _find(tree, qualname: str):
    body = tree.body
    node = None
    for part in qualname.split("."):
        node = next(
            n for n in body
            if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part
        )
        body = node.body
    return node


def _signature(path: str, qualname: str):
    """``(positional names, {name: default})`` of one target."""
    node = _find(ast.parse((ROOT / path).read_text()), qualname)
    if isinstance(node, ast.ClassDef):  # a dataclass: its annotated fields
        fields = [n for n in node.body if isinstance(n, ast.AnnAssign)]
        names = [f.target.id for f in fields]
        return names, {f.target.id: _literal(f.value) for f in fields if f.value}
    args = node.args
    positional = [a.arg for a in args.args if a.arg not in ("self", "cls")]
    defaults = dict(zip([a.arg for a in args.args][-len(args.defaults):], args.defaults))
    defaults.update(
        (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    )
    return positional, {name: _literal(d) for name, d in defaults.items()}


def _callee(func) -> "str | None":
    if isinstance(func, ast.Name) and func.id in TARGETS:
        return func.id
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "from_snapshot"
        and isinstance(func.value, ast.Name)
        and func.value.id == "IndexServer"
    ):
        return "IndexServer.from_snapshot"
    return None


def _module_dicts(trees) -> dict:
    """Module-level ``NAME = {...}`` dict displays, by name."""
    found = {}
    for _, tree in trees:
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Dict)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                found[node.targets[0].id] = node.value
    return found


def _dict_items(node, dicts):
    """``(key, value node)`` of a dict display, ``dict(...)`` or a name of
    a module-level dict; nothing for what the walk cannot read."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict":
        for arg in node.args:
            yield from _dict_items(arg, dicts)
        for kw in node.keywords:
            if kw.arg:
                yield kw.arg, kw.value
            else:
                yield from _dict_items(kw.value, dicts)
    elif isinstance(node, ast.Name) and node.id in dicts:
        yield from _dict_items(dicts[node.id], dicts)
    elif isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            if key is None:
                yield from _dict_items(value, dicts)
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield key.value, value


def census() -> dict:
    """``{(callee, parameter): {"tests": bool, "shipped": bool}}``: whether
    tests, and whether code outside them, set each settable value to
    something other than its default."""
    signatures = {name: _signature(*where) for name, where in TARGETS.items()}
    seen = {
        (name, param): {"tests": False, "shipped": False}
        for name, (_, defaults) in signatures.items()
        for param in defaults
    }
    trees = list(_trees())
    dicts = _module_dicts(trees)

    def note(callee, param, value_node, side):
        entry = seen.get((callee, param))
        if entry is not None and _literal(value_node) != signatures[callee][1][param]:
            entry[side] = True

    for path, tree in trees:
        side = "tests" if path.startswith(TEST_FILES) else "shipped"
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or (callee := _callee(node.func)) is None:
                continue
            positional = signatures[callee][0]
            for name, arg in zip(positional, node.args):
                note(callee, name, arg, side)
            for kw in node.keywords:
                pairs = [(kw.arg, kw.value)] if kw.arg else _dict_items(kw.value, dicts)
                for name, value in pairs:
                    note(callee, name, value, side)
                if callee == "build_cluster" and kw.arg == "serve":
                    for name, value in _dict_items(kw.value, dicts):
                        note("ServeConfig", name, value, side)
    return seen


def test_every_settable_value_has_a_caller_outside_the_tests():
    test_only = sorted(
        f"{callee}({param}=...)"
        for (callee, param), entry in census().items()
        if entry["tests"] and not entry["shipped"] and (callee, param) not in ALLOWED
    )
    assert not test_only, (
        "settable values only tests set to a non-default value (make each a "
        "module constant or delete it):\n" + "\n".join(test_only)
    )


def test_the_allow_list_names_live_test_only_values():
    """An allowed value must still exist, and still be one only tests set:
    once shipped code sets it, or no test does, its entry goes."""
    seen = census()
    stale = [
        key for key in ALLOWED
        if key not in seen or seen[key]["shipped"] or not seen[key]["tests"]
    ]
    assert not stale, f"allow-list entries to drop: {stale}"
