"""Tests for RSMI's level-wise build and its obs instrumentation.

The level-wise build fits each level's nodes in turn, breadth first; the
resulting tree must be identical to a depth-first recursion — structure,
models, and error bounds.  The depth-first builder lives here, as the
reference: ``RSMIIndex`` has one build.
"""

from collections import deque

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices.rsmi import RSMIIndex, _Node
from repro.spatial.rect import Rect
from tests.brute import assert_windows
from tests.spans import spans_named


def _index(leaf_capacity=300, builder=None):
    config = ELSIConfig(train_epochs=60)
    return RSMIIndex(
        builder=builder or ELSIModelBuilder(config, method="SP"),
        leaf_capacity=leaf_capacity,
    )


def _build(points, leaf_capacity=300):
    return _index(leaf_capacity).build(points)


def _build_depth_first(points, leaf_capacity=300, builder=None):
    """The reference: one ``build_model`` call per node, children built
    before siblings, sharing the index's own sort and split steps."""
    index = _index(leaf_capacity=leaf_capacity, builder=builder)
    pts = index._prepare_points(points)
    index.bounds = Rect.bounding(pts)
    index.n_points = len(pts)

    def build_node(points, bounds, depth):
        sorted_pts, sorted_keys = index._sort_by_node_keys(points, bounds)
        model = index.builder.build_model(
            sorted_keys,
            sorted_pts,
            index.build_stats,
            map_fn=lambda p: index._node_keys(p, bounds),
        )
        node = _Node(bounds=bounds, model=model, n=len(points), depth=depth)
        specs = index._split_specs(node, sorted_pts, sorted_keys)
        if specs:
            node.children = [None] * index.fanout
            for b, child_pts, child_bounds in specs:
                node.link(b, build_node(child_pts, child_bounds, depth + 1))
        return node

    index.root = build_node(pts, index.bounds, 0)
    return index


def _signature(node, out):
    """Flatten a tree into comparable per-node tuples (pre-order)."""
    out.append(
        (
            node.depth,
            node.n,
            node.is_leaf,
            node.model.err_l,
            node.model.err_u,
            tuple(node.bounds.lo_array),
            tuple(node.bounds.hi_array),
        )
    )
    if node.is_leaf:
        keys = node.run.store.keys
        out.append(tuple(keys[:: max(1, len(keys) // 7)]))
    else:
        for child in node.children:
            if child is None:
                out.append(None)
            else:
                _signature(child, out)


def _weights_equal(a, b):
    stack = [(a.root, b.root)]
    while stack:
        na, nb = stack.pop()
        for wa, wb in zip(na.model.net.weights, nb.model.net.weights):
            np.testing.assert_array_equal(wa, wb)
        if not na.is_leaf:
            for ca, cb in zip(na.children, nb.children):
                assert (ca is None) == (cb is None)
                if ca is not None:
                    stack.append((ca, cb))


class TestLevelwiseParity:
    def test_level_matches_recursive(self, osm_points):
        recursive = _build_depth_first(osm_points)
        level = _build(osm_points)
        sig_r, sig_l = [], []
        _signature(recursive.root, sig_r)
        _signature(level.root, sig_l)
        assert sig_r == sig_l
        _weights_equal(recursive, level)
        # The hierarchy is non-trivial at this leaf capacity.
        assert level.n_models() > 1
        assert level.depth() >= 1

    def test_queries_agree_across_strategies(self, osm_points):
        recursive = _build_depth_first(osm_points)
        level = _build(osm_points)
        assert level.point_queries(osm_points[:150]).all()
        window = Rect(np.array([0.2, 0.2]), np.array([0.5, 0.5]))
        got = level.window_query(window)
        assert_windows("RSMI", osm_points, [window], [got])
        np.testing.assert_array_equal(recursive.window_query(window), got)

    def test_overflow_rebuild_uses_configured_strategy(self, osm_points):
        index = _build(osm_points[:500], leaf_capacity=40)
        rng = np.random.default_rng(2)
        extra = osm_points[500:900] + rng.normal(0.0, 1e-4, (400, 2))
        for p in extra:
            index.insert(p)
        assert index.point_queries(extra[::25]).all()
        assert index.n_points == 900

    def test_invalid_strategy_rejected(self):
        """The build-strategy option is gone, not silently ignored."""
        with pytest.raises(TypeError, match="build_strategy"):
            RSMIIndex(build_strategy="level")


class _RecordingRandom(ELSIModelBuilder):
    """A random-choice builder that records, per call, the partition's keys,
    the method it drew for them and the model it returned."""

    def __init__(self):
        super().__init__(ELSIConfig(train_epochs=60), random_choice=True)
        self.drawn = {}
        self.models = []

    def _choose(self, sorted_keys, map_fn):
        chosen = super()._choose(sorted_keys, map_fn)
        self.drawn[sorted_keys.tobytes()] = chosen.name
        return chosen

    def build_model(self, *args, **kwargs):
        model = super().build_model(*args, **kwargs)
        self.models.append(model)
        return model


class _Replay(ELSIModelBuilder):
    """Fits each partition with the method a recorded build drew for it,
    whatever order the partitions come in."""

    def __init__(self, drawn):
        super().__init__(ELSIConfig(train_epochs=60), random_choice=True)
        self.drawn = drawn

    def _choose(self, sorted_keys, map_fn):
        return self._by_name[self.drawn[sorted_keys.tobytes()]]


def _breadth_first(root):
    """``(depth, n)`` of every node, level by level, siblings in branch order."""
    order, queue = [], deque([root])
    while queue:
        node = queue.popleft()
        order.append((node.depth, node.n))
        queue.extend(c for c in node.children if c is not None)
    return order


class TestRandomChoiceOrder:
    def test_models_are_fitted_breadth_first(self, osm_points):
        """A random-choice builder draws one method per ``build_model``
        call, so the call order decides which partition gets which method.
        The calls arrive in breadth-first order of the tree a depth-first
        recursion builds with the same draws per partition."""
        recorder = _RecordingRandom()
        index = _index(builder=recorder).build(osm_points)
        assert len(recorder.drawn) == len(recorder.models) == index.n_models()
        assert len(set(recorder.drawn.values())) > 1
        node_of = {id(node.model): node for node in index._nodes()}
        calls = [(node_of[id(m)].depth, node_of[id(m)].n) for m in recorder.models]

        reference = _build_depth_first(osm_points, builder=_Replay(recorder.drawn))
        sig_ref, sig = [], []
        _signature(reference.root, sig_ref)
        _signature(index.root, sig)
        assert sig == sig_ref
        _weights_equal(reference, index)
        assert calls == _breadth_first(reference.root)
        assert index.depth() >= 2  # depth-first order would differ


class TestRSMISpans:
    def test_build_emits_level_spans(self, osm_points, tracer):
        _build(osm_points)
        build_spans = spans_named(tracer, "rsmi.build")
        assert len(build_spans) == 1
        assert build_spans[0].attrs["models"] >= 1
        levels = spans_named(tracer, "rsmi.fit_level")
        assert levels, "level-wise build must emit per-level spans"
        assert levels[0].attrs["level"] == 0
        assert levels[0].attrs["nodes"] == 1
        # Each level's model fits nest under its span, one per node.
        by_id = {s.span_id: s for s in tracer.spans()}
        fitted = {level.span_id: 0 for level in levels}
        for train in spans_named(tracer, "build.train"):
            parent = by_id[train.parent_id]
            while parent.name != "rsmi.fit_level":
                parent = by_id[parent.parent_id]
            fitted[parent.span_id] += 1
        assert [fitted[level.span_id] for level in levels] == [
            level.attrs["nodes"] for level in levels
        ]
        assert sum(fitted.values()) == build_spans[0].attrs["models"]

    def test_query_spans(self, osm_points, tracer):
        """RSMI queries emit the span vocabulary every index shares."""
        index = _build(osm_points)
        tracer.reset()
        index.point_query(osm_points[0])
        index.window_query(Rect(np.array([0.2, 0.2]), np.array([0.4, 0.4])))
        point_spans = spans_named(tracer, "query.point_batch")
        assert len(point_spans) == 1
        assert point_spans[0].attrs == {"index": "RSMI", "queries": 1}
        window_spans = spans_named(tracer, "query.window_batch")
        assert len(window_spans) == 1
        assert window_spans[0].attrs == {"index": "RSMI", "windows": 1}
        assert spans_named(tracer, "query.model_predict") and spans_named(tracer, "query.refine")
        assert not [s for s in tracer.spans() if s.name.startswith("rsmi.")]
