"""Tests for RSMI's level-wise build and its obs instrumentation.

The level-wise frontier build dispatches every level's sibling model fits
as one ``build_models`` batch; the resulting tree must be identical to a
depth-first recursion — structure, models, and error bounds.  The
depth-first builder lives here, as the reference: ``RSMIIndex`` has one
build.
"""

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices.rsmi import RSMIIndex, _Node
from repro.spatial.rect import Rect
from tests.brute import assert_windows


def _index(leaf_capacity=300):
    config = ELSIConfig(train_epochs=60)
    return RSMIIndex(
        builder=ELSIModelBuilder(config, method="SP"), leaf_capacity=leaf_capacity
    )


def _build(points, leaf_capacity=300):
    return _index(leaf_capacity).build(points)


def _build_depth_first(points, leaf_capacity=300):
    """The reference: one ``build_model`` call per node, children built
    before siblings, sharing the index's own sort and split steps."""
    index = _index(leaf_capacity=leaf_capacity)
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
                node.children[b] = build_node(child_pts, child_bounds, depth + 1)
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


class TestRSMISpans:
    def test_build_emits_level_spans(self, osm_points, tracer):
        _build(osm_points)
        build_spans = tracer.find("rsmi.build")
        assert len(build_spans) == 1
        assert build_spans[0].attrs["models"] >= 1
        levels = tracer.find("rsmi.fit_level")
        assert levels, "level-wise build must emit per-level spans"
        assert levels[0].attrs["level"] == 0
        assert levels[0].attrs["nodes"] == 1
        # Each level is one build_models call.
        assert len(tracer.find("build.models")) == len(levels)

    def test_query_spans(self, osm_points, tracer):
        """RSMI queries emit the span vocabulary every index shares."""
        index = _build(osm_points)
        tracer.reset()
        index.point_query(osm_points[0])
        index.window_query(Rect(np.array([0.2, 0.2]), np.array([0.4, 0.4])))
        point_spans = tracer.find("query.point_batch")
        assert len(point_spans) == 1
        assert point_spans[0].attrs == {"index": "RSMI", "queries": 1}
        window_spans = tracer.find("query.window_batch")
        assert len(window_spans) == 1
        assert window_spans[0].attrs == {"index": "RSMI", "windows": 1}
        assert tracer.find("query.model_predict") and tracer.find("query.refine")
        assert not [s for s in tracer.spans() if s.name.startswith("rsmi.")]
