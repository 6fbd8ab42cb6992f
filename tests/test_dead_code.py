"""Every public function, method and class of ``src/repro`` has a reader.

A name counts as read where it appears as a ``Name``, an ``Attribute`` or
a call's keyword anywhere in ``src``, ``tests``, ``benchmarks`` or
``examples``.  Its own definition, an ``import`` of it and an ``__all__``
string are not reads: an exported function that nothing calls is dead
code all the same.

In the modules that are ours (``SCOPE`` of ``tests/test_settable_values.py``)
a test is not enough: each public definition there needs a reader outside
``tests/`` (and ``faults/chaos.py``, which counts as a test), or an
:data:`ALLOWED` entry that says why only tests read it.  Names are matched,
not resolved, so a method is read wherever any attribute of its name is.
"""

import ast

from tests.test_settable_values import TEST_FILES, in_scope, source_trees


def _read_names(trees) -> set[str]:
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
    return names


def test_every_public_definition_is_read_somewhere():
    trees = list(source_trees())
    read = _read_names(tree for _, tree in trees)
    unread = [
        f"{rel}:{node.lineno}: {node.name}"
        for rel, tree in trees
        if rel.startswith("src/repro/")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert not unread, "public definitions nothing reads:\n" + "\n".join(unread)


#: In-scope public definitions only tests read, kept on purpose:
#: ``(module under src/repro, qualified name) -> why``, with the reasons of
#: ``tests/test_settable_values.py``'s allow-list.
ALLOWED = {
    ("data/controlled.py", "population_cdf"):
        "(a) the forward CDF the controlled sampler inverts; the tests measure "
        "the construction's KS distance on it",
    ("faults/registry.py", "FaultRegistry.arm"): "(e) a fault-injection instrument",
    ("faults/registry.py", "FaultRegistry.disarm"): "(e) a fault-injection instrument",
    ("faults/registry.py", "FaultRegistry.armed"): "(e) a fault-injection instrument",
    ("faults/registry.py", "FaultRegistry.triggered"): "(e) a fault-injection instrument",
    ("ml/ffn.py", "FFN.parameters"):
        "(a) the per-layer views the textbook trainer oracle optimises",
    ("ml/pla.py", "PiecewiseLinearModel.n_segments"):
        "(c) ROADMAP items 1 and 10 decide the epsilon-PLA leaf",
    ("queries/evaluate.py", "brute_force_knn"): "(a) the kNN oracle",
    ("serve/server.py", "IndexServer.submit_window_batch"):
        "(c) ROADMAP item 22 owns the serving tier's surface; the batch "
        "spelling of a window request, which the shard worker now queues "
        "without the copy",
    ("serve/server.py", "IndexServer.submit_knn_batch"):
        "(c) ROADMAP item 22 owns the serving tier's surface; the batch "
        "spelling of a kNN request, which the shard worker now queues "
        "without the copy",
    ("shard/router.py", "ShardRouter.health_summary"):
        "(e) the fleet's fault report: which shard is down or read-only, the "
        "operator check docs/observability.md documents",
    ("spatial/hilbert.py", "hilbert_decode"): "(a) the inverse the Hilbert encoder is tested by",
    ("spatial/zcurve.py", "morton_encode"): "(a) the oracle the Morton kernels are tested against",
    ("spatial/zcurve.py", "morton_decode"): "(a) the inverse the Morton oracle is tested by",
    ("storage/blocks.py", "BlockStore.block_reads"):
        "(c) ROADMAP item 17 puts the counted block reads in the figures",
    ("storage/blocks.py", "BlockStore.reset_block_reads"):
        "(c) ROADMAP item 17 puts the counted block reads in the figures",
}


def _definitions(trees):
    """``(module, qualified name, line)`` of every function, method and
    class of ``src/repro`` (functions nested in functions excluded)."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + node.name, node.lineno
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, prefix + node.name + ".")

    for rel, tree in trees:
        if rel.startswith("src/repro/"):
            module = rel[len("src/repro/"):]
            for qual, line in walk(tree.body, ""):
                yield module, qual, line


def census() -> dict:
    """``{(module, qualified name): line}`` of every in-scope public
    definition whose name nothing outside the tests reads (chaos counts as
    a test)."""
    trees = list(source_trees())
    shipped = _read_names(
        tree for rel, tree in trees if not rel.startswith(TEST_FILES)
    )
    return {
        (module, qual): line
        for module, qual, line in _definitions(trees)
        if in_scope(module, qual) and qual.rsplit(".", 1)[-1] not in shipped
    }


def test_every_in_scope_public_definition_has_a_reader_outside_the_tests():
    unread = [
        f"src/repro/{module}:{line}: {qual}"
        for (module, qual), line in sorted(census().items())
        if (module, qual) not in ALLOWED
    ]
    assert not unread, (
        "public definitions only tests read (delete each, or allow-list it "
        "with a reason):\n" + "\n".join(unread)
    )


def test_the_allow_list_names_live_test_only_definitions():
    """An allowed definition must still exist, and still be one only tests
    read: once shipped code reads it, its entry goes."""
    test_only = census()
    stale = [key for key in ALLOWED if key not in test_only]
    assert not stale, f"allow-list entries to drop: {stale}"
