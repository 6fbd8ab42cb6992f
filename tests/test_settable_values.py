"""Every settable value of the modules that are ours has a caller outside
the tests.

A settable value — a field of a public dataclass, or a keyword parameter
with a default of a public function, class or method in :data:`SCOPE`
(plus ``UpdateProcessor``) — earns its place only if code outside
``tests/`` sets it to something other than its default.  A value that
only tests move is a branch nothing ships: make it a module constant,
delete it, or give it an :data:`ALLOWED` entry that says why it stays.  A
value that nothing moves, tests included, is a constant spelled as a
parameter: the same verdicts, or an :data:`UNSET_ALLOWED` entry.

The census is an AST walk over ``src``, ``benchmarks``, ``examples`` and
``tests``.  Calls are matched by spelling: ``f(...)`` and ``mod.f(...)``
reach a function or class named ``f``, ``obj.m(...)`` every method named
``m``, so the census is approximate where two callables share a name.  A
call's keyword arguments, its positional arguments (mapped by the
signature) and ``**NAME`` expansions of module-level dict literals all
count as settings; so do the keys of ``build_cluster``'s ``serve=`` dict,
which every shard worker passes to ``ServeConfig``.  A call to a class
that inherits its ``__init__`` reaches the base class that defines it.

A keyword (or dict key) that a frozen ``benchmarks/e2e`` file spells is a
use whatever its value: those files cannot change, so a value they pass,
even at its default, must stay settable.

A value that is the enclosing function's own parameter, or a field of a
dataclass read as an attribute (``spec.salvage``), is forwarded: it sets
the target where, and only where, its source is set (or its source's
default differs from the target's).  Any other value the walk cannot read
(a local variable, a call) counts as a non-default setting.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_FILES = ("tests/",)
#: Files whose spelled keywords count as uses whatever their values.
FROZEN_FILES = ("benchmarks/e2e/",)

#: The modules that are ours (relative to ``src/repro``): their public
#: callables are the census's targets.
SCOPE = (
    "serve/", "shard/", "faults/registry.py", "obs/", "storage/", "perf/",
    "queries/", "spatial/", "data/", "ml/", "bench/", "cli.py",
)
#: Targets outside :data:`SCOPE`, by ``(file, qualified name)``.
EXTRA_TARGETS = (("core/update_processor.py", "UpdateProcessor"),)

#: Values only tests move, kept on purpose: ``(target, parameter) -> why``.
#: The reasons are the census's five: (a) an oracle tests compare shipped
#: code against, (b) a frozen ``benchmarks/e2e`` file reads it, (c) an
#: open ROADMAP item owns the decision, (d) the paper defines it, (e)
#: safety code.
ALLOWED = {
    ("IndexServer.from_snapshot", "salvage"):
        "(e) the documented recovery path for a log corrupted mid-file "
        "(docs/serving.md): an explicit opt-in to losing the records after it",
    ("WriteAheadLog.replay_dir", "salvage"):
        "(e) what from_snapshot(salvage=True) forwards to the log's replay",
    ("WriteAheadLog.replay_file", "salvage"):
        "(e) what replay_dir(salvage=True) forwards to each log's replay",
    ("batch_point_membership", "atol"):
        "(a) the parity tests hold the key-ordered point path, which takes the "
        "same tolerance, to this kernel; (b) the frozen e2e layers call it",
    ("morton_encode", "bits"): "(a) the oracle the Morton kernels are tested against",
    ("morton_decode", "bits"): "(a) the inverse the Morton oracle is tested by",
    ("hilbert_decode", "bits"): "(a) the inverse the Hilbert encoder is tested by",
    **{
        ("FaultRegistry.arm", param): "(e) a fault-injection instrument"
        for param in ("after", "delay_seconds", "kind", "times")
    },
    ("FaultRegistry.disarm", "site"): "(e) a fault-injection instrument",
    ("FaultRegistry.triggered", "site"): "(e) a fault-injection instrument",
    **{
        ("FaultSpec", param): "(e) a fault-injection instrument"
        for param in ("after", "delay_seconds", "kind", "times")
    },
}

#: Values nothing sets to another value, tests included, kept on purpose:
#: ``(target, parameter) -> why``, with :data:`ALLOWED`'s reasons.
UNSET_ALLOWED = {
    ("IndexServer", "predictor"):
        "(c) ROADMAP item 20 decides whether the server's rebuild check takes "
        "the paper's trained predictor",
}

_MISSING = object()


def source_trees():
    """``(relative path, module AST)`` of every file the census reads."""
    for directory in ("src", "benchmarks", "examples", "tests"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            yield rel, ast.parse(path.read_text(), filename=rel)


def _literal(node):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return _MISSING


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _not_in_init(value) -> bool:
    """Whether a dataclass field's default is ``field(..., init=False)``."""
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and _literal(kw.value) is False for kw in value.keywords
    )


class _Callable:
    """One signature: positional names, ``{name: default}``, how calls
    spell it (``name`` for a function or class, ``.name`` for a method),
    and the definition it was read from."""

    def __init__(self, key, spelling, positional, defaults, node, nested):
        self.key = key
        self.spelling = spelling
        self.positional = positional
        self.defaults = {name: _literal(value) for name, value in defaults.items()}
        self.node = node
        self.nested = nested  # defined inside a function: not public


def _function_signature(node, key, spelling, nested):
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    positional = [n for n in names if n not in ("self", "cls")]
    defaults = dict(zip(names[len(names) - len(args.defaults):], args.defaults))
    defaults.update(
        (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    )
    return _Callable(key, spelling, positional, defaults, node, nested)


def _callables(rel: str, tree):
    """Every signature with a defaulted parameter defined in ``rel``;
    private and nested ones too, because they can be the source a public
    one forwards."""
    module = rel[len("src/repro/"):]

    def walk(body, prefix, in_class, nested):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + node.name
                if node.name == "__init__" and in_class:
                    cls = prefix[:-1]
                    key, spelling = (module, cls), cls.rsplit(".", 1)[-1]
                elif in_class:
                    key, spelling = (module, qual), "." + node.name
                else:
                    key, spelling = (module, qual), node.name
                yield _function_signature(node, key, spelling, nested)
                yield from walk(node.body, qual + ".", False, True)
            elif isinstance(node, ast.ClassDef):
                qual = prefix + node.name
                if _is_dataclass(node):
                    fields = [
                        n for n in node.body
                        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                        and not _not_in_init(n.value)
                    ]
                    yield _Callable(
                        (module, qual), node.name,
                        [f.target.id for f in fields],
                        {f.target.id: f.value for f in fields if f.value is not None},
                        node, nested,
                    )
                yield from walk(node.body, qual + ".", True, nested)

    for sig in walk(tree.body, "", False, False):
        if sig.defaults:
            yield sig


def in_scope(module: str, qual: str) -> bool:
    """Whether ``qual`` of ``module`` (relative to ``src/repro``) is a
    public definition of a module that is ours.  Of ``ml/`` only the
    methods count: its classes' constructors and hyperparameters are the
    paper's models."""
    if (module, qual) in EXTRA_TARGETS:
        return True
    if any(part.startswith("_") for part in qual.split(".")):
        return False
    if module.startswith("ml/"):
        return "." in qual
    return module.startswith(SCOPE)


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


def _inherited_inits(trees) -> dict:
    """``{class name: base class name}`` of every ``src/repro`` class that
    defines no constructor of its own (no ``__init__``, not a dataclass):
    a call to it runs the first base's."""
    found = {}
    for rel, tree in trees:
        if not rel.startswith("src/repro/"):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or not node.bases or _is_dataclass(node):
                continue
            if any(
                isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == "__init__"
                for n in node.body
            ):
                continue
            base = node.bases[0]
            name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
            if name:
                found.setdefault(node.name, name)
    return found


def _spellings(func, cls) -> list[str]:
    if isinstance(func, ast.Name):
        return [cls if func.id == "cls" and cls else func.id]
    if isinstance(func, ast.Attribute):
        return [func.attr, "." + func.attr]
    return []


def _enclosing(tree):
    """``{call node id: (enclosing function node, enclosing class name)}``
    for every call."""
    owner = {}

    def visit(node, fn, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                owner[id(child)] = (fn, cls)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child, cls)
            elif isinstance(child, ast.ClassDef):
                visit(child, fn, child.name)
            else:
                visit(child, fn, cls)

    visit(tree, None, None)
    return owner


def _kwargs_forwarders(trees) -> dict:
    """``{spelling: [(own parameter names, callee spellings)]}`` of every
    function that passes its ``**kwargs`` on: a keyword its callers give
    it that it does not name is a setting of each callee."""
    found = {}
    for _, tree in trees:
        owner = _enclosing(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or not node.args.kwarg:
                continue
            # ``**kwargs`` itself, and locals built from it (``common =
            # dict(..., **kwargs)``).
            carriers = {node.args.kwarg.arg}
            for stmt in ast.walk(node):
                if (
                    isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and any(
                        isinstance(n, ast.Name) and n.id in carriers
                        for n in ast.walk(stmt.value)
                    )
                ):
                    carriers.add(stmt.targets[0].id)
            callees = [
                spelling
                for call in ast.walk(node) if isinstance(call, ast.Call)
                if any(
                    kw.arg is None and isinstance(kw.value, ast.Name) and kw.value.id in carriers
                    for kw in call.keywords
                )
                for spelling in _spellings(call.func, owner[id(call)][1])
            ]
            if callees:
                args = node.args
                own = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                for spelling in (node.name, "." + node.name):
                    found.setdefault(spelling, []).append((own, callees))
    return found


def census(trees=None) -> dict:
    """``{(target, parameter): {"tests": bool, "shipped": bool}}``: whether
    tests, and whether code outside them, set each in-scope settable value
    to something other than its default.  ``target`` is the qualified name
    (``ServeConfig``, ``IndexServer.point_query``, ``build_cluster``)."""
    trees = list(source_trees() if trees is None else trees)
    dicts = _module_dicts(trees)
    sigs = {}  # key -> _Callable
    for rel, tree in trees:
        if rel.startswith("src/repro/"):
            for sig in _callables(rel, tree):
                sigs.setdefault(sig.key, sig)
    by_spelling, by_node, fields_by_name = {}, {}, {}
    for sig in sigs.values():
        by_spelling.setdefault(sig.spelling, []).append(sig)
        if isinstance(sig.node, ast.ClassDef):
            for name in sig.defaults:
                fields_by_name.setdefault(name, []).append(sig)
        else:  # a function whose parameters can be forwarding sources
            by_node[id(sig.node)] = sig.key

    state = {
        (key, param): {"tests": False, "shipped": False}
        for key, sig in sigs.items() for param in sig.defaults
    }
    forwards = []   # (target slot, side, source slot)

    def note(sig, param, value, side, fn, frozen=False):
        slot = (sig.key, param)
        if slot not in state:
            return
        if frozen:
            state[slot][side] = True
            return
        source = None
        if (
            isinstance(value, ast.Name) and fn is not None and id(fn) in by_node
            and (by_node[id(fn)], value.id) in state
        ):
            source = (by_node[id(fn)], value.id)
        elif isinstance(value, ast.Attribute) and len(fields_by_name.get(value.attr, ())) == 1:
            source = (fields_by_name[value.attr][0].key, value.attr)
        if source is not None and source != slot:
            forwards.append((slot, side, source))
            return
        literal = _literal(value)
        if literal is _MISSING or literal != sig.defaults[param]:
            state[slot][side] = True

    forwarders = _kwargs_forwarders(trees)
    inherits = _inherited_inits(trees)

    def targets(spelling):
        """The signatures a call spelled ``spelling`` reaches: a class
        without a constructor of its own reaches its base's."""
        seen = set()
        while spelling in inherits and spelling not in by_spelling and spelling not in seen:
            seen.add(spelling)
            spelling = inherits[spelling]
        return by_spelling.get(spelling, ())

    def visit(spellings, args, keywords, side, fn, frozen, depth=0):
        for spelling in spellings:
            for sig in targets(spelling):
                for name, arg in zip(sig.positional, args):
                    note(sig, name, arg, side, fn)
                for kw in keywords:
                    pairs = [(kw.arg, kw.value)] if kw.arg else _dict_items(kw.value, dicts)
                    for name, value in pairs:
                        note(sig, name, value, side, fn, frozen)
                    if sig.spelling == "build_cluster" and kw.arg == "serve":
                        for config in by_spelling.get("ServeConfig", ()):
                            for name, value in _dict_items(kw.value, dicts):
                                note(config, name, value, side, fn, frozen)
            for own, callees in forwarders.get(spelling, ()):
                extra = [kw for kw in keywords if kw.arg and kw.arg not in own]
                if extra and depth < 4:
                    visit(callees, [], extra, side, fn, frozen, depth + 1)

    for rel, tree in trees:
        side = "tests" if rel.startswith(TEST_FILES) else "shipped"
        frozen = rel.startswith(FROZEN_FILES)
        owner = _enclosing(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn, cls = owner[id(node)]
                visit(_spellings(node.func, cls), node.args, node.keywords, side, fn, frozen)

    changed = True
    while changed:
        changed = False
        for slot, side, source in forwards:
            target_default = sigs[slot[0]].defaults[slot[1]]
            source_default = sigs[source[0]].defaults[source[1]]
            moved = dict(state[source])
            if side == "shipped" and source_default != target_default:
                moved["shipped"] = True
            if side == "tests":  # a test forwarding anything sets it there
                moved = {"tests": moved["tests"] or moved["shipped"], "shipped": False}
            for where in ("tests", "shipped"):
                if moved[where] and not state[slot][where]:
                    state[slot][where] = changed = True

    return {
        (key[1], param): entry
        for (key, param), entry in state.items()
        if in_scope(*key) and not sigs[key].nested and not param.startswith("_")
    }


def _test_only(seen) -> list[str]:
    return sorted(
        f"{target}({param}=...)"
        for (target, param), entry in seen.items()
        if entry["tests"] and not entry["shipped"] and (target, param) not in ALLOWED
    )


def test_every_settable_value_has_a_caller_outside_the_tests():
    test_only = _test_only(census())
    assert not test_only, (
        "settable values only tests set to a non-default value (make each a "
        "module constant, delete it, or allow-list it with a reason):\n"
        + "\n".join(test_only)
    )


def _unset(seen) -> list[str]:
    return sorted(
        f"{target}({param}=...)"
        for (target, param), entry in seen.items()
        if not entry["tests"] and not entry["shipped"]
        and (target, param) not in UNSET_ALLOWED
    )


def test_every_settable_value_is_set_by_someone():
    """A defaulted value that nothing, tests included, sets to another
    value is a constant spelled as a parameter."""
    unset = _unset(census())
    assert not unset, (
        "settable values nothing sets to a non-default value, tests included "
        "(make each a module constant, delete it, or allow-list it with a "
        "reason):\n" + "\n".join(unset)
    )


def test_the_unset_allow_list_names_live_unset_values():
    """An allowed unset value must still exist, and still be set by
    nothing: once anything sets it, its entry goes."""
    seen = census()
    stale = [
        key for key in UNSET_ALLOWED
        if key not in seen or seen[key]["shipped"] or seen[key]["tests"]
    ]
    assert not stale, f"unset allow-list entries to drop: {stale}"


def test_the_allow_list_names_live_test_only_values():
    """An allowed value must still exist, and still be one only tests set:
    once shipped code sets it, or no test does, its entry goes."""
    seen = census()
    stale = [
        key for key in ALLOWED
        if key not in seen or seen[key]["shipped"] or not seen[key]["tests"]
    ]
    assert not stale, f"allow-list entries to drop: {stale}"


_PLANTED_SRC = '''
from dataclasses import dataclass


@dataclass
class PlantedSpec:
    name: str
    careful: bool = False


def planted_open(name, careful=False):
    return planted_run(PlantedSpec(name, careful=careful))


def planted_run(spec, careful_now=False):
    return planted_load(spec.name, careful=spec.careful)


def planted_load(name, careful=False):
    return name, careful
'''

_PLANTED_TEST = '''
from repro.serve.planted import planted_open


def test_it():
    planted_open("x", careful=True)
'''


def test_a_value_shipped_code_only_forwards_from_a_test_is_flagged():
    """``planted_load(careful=)`` is set only by shipped code, but that code
    forwards ``spec.careful``, which only ``planted_open(careful=)`` sets,
    which only a test sets: all three links are test-only."""
    planted = [
        ("src/repro/serve/planted.py", ast.parse(_PLANTED_SRC)),
        ("tests/test_planted.py", ast.parse(_PLANTED_TEST)),
    ]
    flagged = _test_only(census(list(source_trees()) + planted))
    for value in (
        "planted_open(careful=...)",
        "PlantedSpec(careful=...)",
        "planted_load(careful=...)",
    ):
        assert value in flagged
    assert "planted_run(careful_now=...)" not in flagged  # nobody sets it


_PLANTED_FROZEN_SRC = '''
def planted_serve(name, wal=True, fsync="always"):
    return name, wal, fsync
'''

_PLANTED_FROZEN_CALLER = '''
from repro.serve.planted import planted_serve


def run():
    return planted_serve("x", wal=True)
'''

_PLANTED_EXAMPLE = '''
from repro.serve.planted import planted_serve


def main():
    return planted_serve("y", fsync="always")
'''


def test_a_keyword_a_frozen_benchmark_file_spells_is_a_use():
    """``planted_serve(wal=True)`` passes the default, but from a frozen
    ``benchmarks/e2e`` file: a use.  The same default spelled in any other
    file sets nothing."""
    planted = [
        ("src/repro/serve/planted.py", ast.parse(_PLANTED_FROZEN_SRC)),
        ("benchmarks/e2e/planted.py", ast.parse(_PLANTED_FROZEN_CALLER)),
        ("examples/planted.py", ast.parse(_PLANTED_EXAMPLE)),
    ]
    unset = _unset(census(list(source_trees()) + planted))
    assert "planted_serve(wal=...)" not in unset
    assert "planted_serve(fsync=...)" in unset


_PLANTED_BASE_SRC = '''
class PlantedError(RuntimeError):
    def __init__(self, message, shard_id=None):
        super().__init__(message)
        self.shard_id = shard_id


class PlantedGone(PlantedError):
    """Inherits its base's constructor."""


def planted_fail():
    raise PlantedGone("gone", shard_id=3)
'''


def test_a_call_to_a_subclass_sets_its_inherited_constructor():
    """``PlantedGone(shard_id=3)`` runs ``PlantedError.__init__``: a
    shipped setting of the base's parameter."""
    planted = [("src/repro/shard/planted.py", ast.parse(_PLANTED_BASE_SRC))]
    seen = census(list(source_trees()) + planted)
    assert seen[("PlantedError", "shard_id")] == {"tests": False, "shipped": True}
