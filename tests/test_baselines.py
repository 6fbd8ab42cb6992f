"""Unit tests for the traditional competitor indices (Grid, KDB, HRR, RR*).

Traditional indices are exact by design: every query result is compared
against brute force.
"""

import numpy as np
import pytest

from repro.baselines import GridIndex, HRRIndex, KDBIndex, RStarIndex
from repro.queries.evaluate import brute_force_knn, brute_force_window
from repro.spatial.rect import Rect

CASES = [
    pytest.param(GridIndex, id="Grid"),
    pytest.param(KDBIndex, id="KDB"),
    pytest.param(HRRIndex, id="HRR"),
    pytest.param(RStarIndex, id="RR*"),
]


@pytest.fixture(scope="module")
def built(osm_points):
    return {
        "Grid": GridIndex().build(osm_points),
        "KDB": KDBIndex().build(osm_points),
        "HRR": HRRIndex().build(osm_points),
        "RR*": RStarIndex().build(osm_points),
    }


@pytest.mark.parametrize("cls", [p.values[0] for p in CASES], ids=[p.id for p in CASES])
class TestExactness:
    def _get(self, built, cls):
        names = {GridIndex: "Grid", KDBIndex: "KDB", HRRIndex: "HRR", RStarIndex: "RR*"}
        return built[names[cls]]

    def test_point_queries(self, built, osm_points, cls):
        index = self._get(built, cls)
        assert all(index.point_query(p) for p in osm_points[:300])
        assert not index.point_query(np.array([5.0, 5.0]))

    def test_window_queries_exact(self, built, osm_points, cls):
        index = self._get(built, cls)
        rng = np.random.default_rng(0)
        for _ in range(25):
            center = osm_points[rng.integers(len(osm_points))]
            window = Rect.centered(center, rng.uniform(0.01, 0.15))
            got = index.window_query(window)
            truth = brute_force_window(osm_points, window)
            assert len(got) == len(truth)
            assert set(map(tuple, got)) == set(map(tuple, truth))

    def test_non_integer_k_rejected(self, built, osm_points, cls):
        index = self._get(built, cls)
        for k in (0, 2.5, np.float64(3.0)):
            with pytest.raises(ValueError, match="k must be"):
                index.knn_query(osm_points[0], k)

    def test_knn_exact_distances(self, built, osm_points, cls):
        index = self._get(built, cls)
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = rng.random(2)
            got = index.knn_query(q, 15)
            truth = brute_force_knn(osm_points, q, 15)
            np.testing.assert_allclose(
                np.sort(np.linalg.norm(got - q, axis=1)),
                np.sort(np.linalg.norm(truth - q, axis=1)),
                atol=1e-12,
            )

    def test_build_seconds_recorded(self, built, cls):
        assert self._get(built, cls).build_seconds > 0

    def test_unbuilt_rejected(self, built, cls):
        with pytest.raises(RuntimeError):
            cls().point_query(np.array([0.5, 0.5]))

    def test_invalid_input(self, built, cls):
        with pytest.raises(ValueError):
            cls().build(np.empty((0, 2)))


class TestGridSpecifics:
    def test_cell_count_rule(self, osm_points):
        """sqrt(n/B) cells per axis (Section VII-A)."""
        index = GridIndex(block_size=100).build(osm_points)
        assert index.cells_per_axis == int(np.sqrt(len(osm_points) / 100))

    def test_block_capacity(self, osm_points):
        index = GridIndex(block_size=50).build(osm_points)
        for blocks in index._cells.values():
            for block in blocks:
                assert len(block.points) <= 50

    def test_skewed_data_concentrates_splits(self):
        """Skew concentrates blocks in a few dense cells (the Figure 8 NYC
        effect: each insert into a dense cell scans many blocks, and the
        dense cells re-split repeatedly while sparse cells sit idle)."""
        from repro.data import load_dataset

        uniform_index = GridIndex().build(load_dataset("Uniform", 3_000))
        nyc_index = GridIndex().build(load_dataset("NYC", 3_000))
        blocks_per_cell = lambda idx: max(len(b) for b in idx._cells.values())  # noqa: E731
        assert blocks_per_cell(nyc_index) > 2 * blocks_per_cell(uniform_index)


class TestKDBSpecifics:
    def test_leaf_size_bounded(self, osm_points):
        index = KDBIndex(block_size=64).build(osm_points)
        stack = [index.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert len(node.points) <= 64
            else:
                stack.extend(c for c in (node.left, node.right) if c)

    def test_depth_logarithmic(self, osm_points):
        index = KDBIndex(block_size=50).build(osm_points)
        assert index.depth() <= 2 * np.log2(len(osm_points) / 50) + 4

    def test_duplicate_coordinates(self):
        pts = np.tile([[0.5, 0.5]], (500, 1))
        index = KDBIndex(block_size=50).build(pts)
        assert index.point_query(np.array([0.5, 0.5]))


class TestHRRSpecifics:
    def test_leaves_packed_full(self, osm_points):
        index = HRRIndex(block_size=100).build(osm_points)
        leaves = []
        stack = [index.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.extend(node.children)
        sizes = [len(leaf.points) for leaf in leaves]
        # All but the last leaf are full (packed bulk load).
        assert sorted(sizes, reverse=True)[: len(sizes) - 1] == [100] * (len(sizes) - 1)

    def test_total_points_preserved(self, osm_points):
        index = HRRIndex().build(osm_points)
        assert index.root.count_points() == len(osm_points)

    def test_low_leaf_overlap(self, osm_points):
        """Hilbert packing keeps sibling leaf MBRs essentially disjoint."""
        index = HRRIndex().build(osm_points)
        leaves = []
        stack = [index.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node.mbr)
            else:
                stack.extend(node.children)
        overlap = sum(
            leaves[i].intersection_area(leaves[j])
            for i in range(len(leaves))
            for j in range(i + 1, len(leaves))
        )
        total = sum(leaf.area() for leaf in leaves)
        assert overlap < 0.5 * total


class TestRStarSpecifics:
    def test_incremental_insert(self, osm_points):
        index = RStarIndex().build(osm_points[:500])
        for p in osm_points[500:600]:
            index.insert(p)
        assert index.n_points == 600
        assert all(index.point_query(p) for p in osm_points[:600][::10])

    def test_mbr_containment_invariant(self, osm_points):
        """Every child's MBR lies inside its parent's MBR."""
        index = RStarIndex().build(osm_points[:800])
        stack = [index.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.mbr.contains_points(node.points).all()
            else:
                for child in node.children:
                    corners = np.stack([child.mbr.lo_array, child.mbr.hi_array])
                    assert node.mbr.contains_points(corners).all()
                    stack.append(child)

    def test_node_capacity_invariant(self, osm_points):
        index = RStarIndex(block_size=40, fanout=8).build(osm_points[:800])
        stack = [index.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert len(node.points) <= 40
            else:
                assert len(node.children) <= 8
                stack.extend(node.children)

    def test_height_grows(self):
        rng = np.random.default_rng(0)
        index = RStarIndex(block_size=10, fanout=4)
        index.build(rng.random((400, 2)))
        assert index.height() >= 2
