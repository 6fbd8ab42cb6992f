"""Unit tests for the quadtree partitioning substrate (Algorithm 2)."""

import numpy as np
import pytest

from repro.spatial.quadtree import MAX_DEPTH, QuadTree
from repro.spatial.rect import Rect


def _node_counts(tree):
    """(internal, leaf) node counts, empty leaves included."""
    internal = leaf = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaf += 1
        else:
            internal += 1
            stack.extend(node.children)
    return internal, leaf


def test_every_point_in_exactly_one_leaf(osm_points):
    tree = QuadTree(osm_points, max_points=50)
    indices = np.concatenate([leaf.point_indices for leaf in tree.leaves()])
    assert sorted(indices.tolist()) == list(range(len(osm_points)))


def test_leaf_capacity_respected(osm_points):
    tree = QuadTree(osm_points, max_points=64)
    assert all(leaf.size <= 64 for leaf in tree.leaves())


def test_points_inside_leaf_bounds(osm_points):
    tree = QuadTree(osm_points, max_points=100)
    for leaf in tree.leaves():
        pts = osm_points[leaf.point_indices]
        # Closed-open convention: lower bound inclusive, upper may equal.
        assert np.all(pts >= leaf.bounds.lo_array - 1e-12)
        assert np.all(pts <= leaf.bounds.hi_array + 1e-12)


def test_single_node_when_under_capacity():
    pts = np.random.default_rng(0).random((10, 2))
    tree = QuadTree(pts, max_points=100)
    assert tree.root.is_leaf
    assert tree.leaves() == [tree.root]


def test_duplicate_points_bounded_by_max_depth():
    pts = np.tile([[0.5, 0.5]], (100, 1))
    tree = QuadTree(pts, max_points=4)
    assert [leaf.depth for leaf in tree.leaves()] == [MAX_DEPTH]
    assert sum(leaf.size for leaf in tree.leaves()) == 100


def test_3d_partitioning():
    pts = np.random.default_rng(1).random((500, 3))
    tree = QuadTree(pts, max_points=32)
    assert not tree.root.is_leaf
    # Each internal node has 2^3 children.
    assert len(tree.root.children) == 8
    assert sum(leaf.size for leaf in tree.leaves()) == 500


def test_bounds_are_the_points_bounding_box():
    pts = np.array([[0.4, 0.3], [0.6, 0.7]])
    tree = QuadTree(pts, max_points=1)
    assert tree.bounds == Rect.bounding(pts)


def test_empty_points():
    tree = QuadTree(np.empty((0, 2)), max_points=4)
    assert tree.root.is_leaf
    assert tree.leaves() == []


def test_invalid_args():
    pts = np.zeros((2, 2))
    with pytest.raises(ValueError):
        QuadTree(pts, max_points=0)
    with pytest.raises(ValueError):
        QuadTree(np.zeros(3), max_points=1)


def test_count_nodes_consistency(osm_points):
    tree = QuadTree(osm_points, max_points=50)
    internal, leaves = _node_counts(tree)
    # A full 2^d-ary tree: leaves = internal * (2^d - 1) + 1.
    assert leaves == internal * 3 + 1
