"""Cross-module edge cases and failure injection.

Degenerate geometries, adversarial key distributions, boundary parameter
values, and misuse of the APIs — the inputs a released library meets in
the wild.
"""

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.update_processor import UpdateProcessor
from repro.data import load_dataset
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.spatial.rect import Rect


@pytest.fixture()
def builder():
    return ELSIModelBuilder(ELSIConfig(train_epochs=60), method="SP")


class TestDegenerateData:
    def test_two_point_dataset(self, builder):
        pts = np.array([[0.1, 0.2], [0.8, 0.9]])
        for cls in (ZMIndex, MLIndex, LISAIndex):
            index = cls(builder=builder).build(pts)
            assert index.point_query(pts[0])
            assert index.point_query(pts[1])

    def test_all_identical_points(self, builder):
        pts = np.tile([[0.5, 0.5]], (200, 1))
        index = ZMIndex(builder=builder).build(pts)
        assert index.point_query(np.array([0.5, 0.5]))
        window = Rect.centered(np.array([0.5, 0.5]), 0.01)
        assert len(index.window_query(window)) == 200

    def test_extreme_coordinates(self, builder):
        pts = np.array([[1e-12, 1e-12], [1e6, 1e6], [500.0, 0.001], [1.0, 2.0]])
        index = ZMIndex(builder=builder).build(pts)
        assert all(index.point_query(p) for p in pts)

    def test_negative_coordinates(self, builder):
        rng = np.random.default_rng(0)
        pts = rng.random((300, 2)) * 2 - 1  # [-1, 1]^2
        index = MLIndex(builder=builder).build(pts)
        assert all(index.point_query(p) for p in pts[::30])

    def test_grid_aligned_lattice(self, builder):
        """TPC-H-like integer lattices: many duplicate keys per axis."""
        xs, ys = np.meshgrid(np.arange(20) / 19, np.arange(20) / 19)
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        index = LISAIndex(builder=builder).build(pts)
        assert all(index.point_query(p) for p in pts[::37])
        window = Rect((0.2, 0.2), (0.4, 0.4))
        truth = pts[window.contains_points(pts)]
        assert len(index.window_query(window)) == len(truth)


@pytest.fixture(scope="module")
def built_2d():
    """All four indices over one 3 000-point OSM1 sample (2-D)."""
    pts = load_dataset("OSM1", 3_000, seed=0)
    builder = ELSIModelBuilder(ELSIConfig(train_epochs=40), method="SP")
    indices = (ZMIndex, MLIndex, RSMIIndex, LISAIndex)
    return pts, {cls.name: cls(builder=builder).build(pts) for cls in indices}


def _reshaped(points: np.ndarray, d: int) -> np.ndarray:
    """``points`` cut down to their first coordinate (d = 1) or given a
    third one, 7.0 (d = 3)."""
    if d == 1:
        return points[:, :1]
    return np.column_stack([points, np.full(len(points), 7.0)])


class TestWrongDimensionalInputs:
    """A probe, window corner or kNN query of the wrong dimensionality is a
    ``ValueError`` naming both shapes, at the three entry points every query
    passes — never a silent answer (ML-Index answered kNN for a 1-D query,
    LISA answered a 1-D point) or an ``IndexError`` from deep inside a
    kernel."""

    NAMES = ["ZM", "ML", "RSMI", "LISA"]
    SHAPE = r"must have shape \(b, 2\), got \({}, {}\)"

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("name", NAMES)
    def test_points(self, built_2d, name, d):
        pts, indices = built_2d
        index, bad = indices[name], _reshaped(pts[:400], d)
        with pytest.raises(ValueError, match=self.SHAPE.format(1, d)):
            index.point_query(bad[0])
        with pytest.raises(ValueError, match=self.SHAPE.format(400, d)):
            index.point_queries(bad)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("name", NAMES)
    def test_windows(self, built_2d, name, d):
        pts, indices = built_2d
        index = indices[name]
        lo, hi = _reshaped(pts[:50] - 0.01, d), _reshaped(pts[:50] + 0.01, d)
        with pytest.raises(ValueError, match=self.SHAPE.format(1, d)):
            index.window_query(Rect.from_arrays(lo[0], hi[0]))
        with pytest.raises(ValueError, match=self.SHAPE.format(50, d)):
            index.window_queries([Rect.from_arrays(a, b) for a, b in zip(lo, hi)])
        with pytest.raises(ValueError, match=self.SHAPE.format(50, d)):
            index.window_rows(lo, hi)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("name", NAMES)
    def test_knn(self, built_2d, name, d):
        pts, indices = built_2d
        index, bad = indices[name], _reshaped(pts[:40], d)
        with pytest.raises(ValueError, match=self.SHAPE.format(1, d)):
            index.knn_query(bad[0], 3)
        with pytest.raises(ValueError, match=self.SHAPE.format(40, d)):
            index.knn_queries(bad, 3)

    @pytest.mark.parametrize("name", NAMES)
    def test_right_shapes_still_answer(self, built_2d, name):
        """The check takes the shapes every caller passes: a ``(d,)`` row,
        ``(b, d)`` batches and empty ``(0, d)`` ones."""
        pts, indices = built_2d
        index = indices[name]
        assert index.point_query(pts[0])
        assert index.point_queries(pts[:5]).all()
        assert index.point_queries(np.empty((0, 2))).shape == (0,)
        rows, counts = index.window_rows(np.empty((0, 2)), np.empty((0, 2)))
        assert rows.shape == (0, 2) and counts.shape == (0,)
        assert index.knn_queries(np.empty((0, 2)), 3) == []
        assert len(index.knn_query(pts[0], 3)) == 3


class TestQueryBoundaries:
    def test_window_outside_data_space(self, builder, osm_points):
        index = ZMIndex(builder=builder).build(osm_points)
        window = Rect((10.0, 10.0), (11.0, 11.0))
        assert len(index.window_query(window)) == 0

    def test_window_covering_everything(self, builder, osm_points):
        index = ZMIndex(builder=builder).build(osm_points)
        window = Rect((-1.0, -1.0), (2.0, 2.0))
        assert len(index.window_query(window)) == len(osm_points)

    def test_zero_area_window_on_point(self, builder, osm_points):
        index = ZMIndex(builder=builder).build(osm_points)
        p = osm_points[17]
        window = Rect(tuple(p), tuple(p))
        got = index.window_query(window)
        assert len(got) >= 1

    def test_knn_k_one(self, builder, osm_points):
        index = MLIndex(builder=builder).build(osm_points)
        got = index.knn_query(osm_points[3], 1)
        np.testing.assert_array_equal(got[0], osm_points[3])

    def test_knn_invalid_k(self, builder, osm_points):
        index = ZMIndex(builder=builder).build(osm_points)
        with pytest.raises(ValueError):
            index.knn_query(np.array([0.5, 0.5]), 0)

    def test_query_point_outside_bounds(self, builder, osm_points):
        index = RSMIIndex(builder=builder, leaf_capacity=500).build(osm_points)
        assert not index.point_query(np.array([-5.0, 7.0]))


class TestUpdateProcessorEdges:
    def test_delete_everything_then_window(self, builder):
        pts = load_dataset("Uniform", 150, seed=4)
        index = ZMIndex(builder=builder).build(pts)
        processor = UpdateProcessor(index, ELSIConfig(train_epochs=60))
        for p in pts:
            assert processor.delete(p)
        assert processor.n_effective == 0
        window = Rect.unit(2)
        assert len(processor.window_query(window)) == 0
        assert len(processor.current_points()) == 0

    def test_rebuild_after_deleting_everything_but_one(self, builder):
        pts = load_dataset("Uniform", 100, seed=5)
        index = ZMIndex(builder=builder).build(pts)
        processor = UpdateProcessor(index, ELSIConfig(train_epochs=60))
        for p in pts[1:]:
            processor.delete(p)
        processor.rebuild()
        assert processor.index.n_points == 1
        assert processor.point_query(pts[0])

    def test_insert_duplicate_of_base_point(self, builder, osm_points):
        index = ZMIndex(builder=builder).build(osm_points)
        processor = UpdateProcessor(index, ELSIConfig(train_epochs=60))
        processor.insert(osm_points[0])  # duplicate coordinates
        assert processor.point_query(osm_points[0])
        # Deleting once removes the side-list copy; the base copy remains.
        assert processor.delete(osm_points[0])
        assert processor.point_query(osm_points[0])

    def test_knn_with_everything_deleted_nearby(self, builder):
        pts = np.vstack([
            np.tile([[0.5, 0.5]], (5, 1)) + np.arange(5)[:, None] * 1e-3,
            np.array([[0.9, 0.9]]),
        ])
        index = ZMIndex(builder=builder).build(pts)
        processor = UpdateProcessor(index, ELSIConfig(train_epochs=60))
        for p in pts[:5]:
            processor.delete(p)
        got = processor.knn_query(np.array([0.5, 0.5]), 1)
        np.testing.assert_array_equal(got[0], [0.9, 0.9])


class TestBuilderEdges:
    def test_single_point_partition(self, builder):
        keys = np.array([0.5])
        pts = np.array([[0.5, 0.5]])
        from repro.indices.base import BuildStats

        model = builder.build_model(keys, pts, BuildStats())
        lo, hi = model.search_ranges(np.array([0.5]))
        assert lo == 0 and hi == 1

    def test_constant_keys_partition(self, builder):
        keys = np.full(50, 7.0)
        pts = np.random.default_rng(0).random((50, 2))
        from repro.indices.base import BuildStats

        model = builder.build_model(keys, pts, BuildStats())
        lo, hi = model.search_ranges(np.array([7.0]))
        assert lo == 0 and hi == 50  # degenerate range: scan everything

    def test_rl_on_tiny_partition(self):
        config = ELSIConfig(train_epochs=40, rl_steps=20, eta=2)
        builder = ELSIModelBuilder(config, method="RL")
        rng = np.random.default_rng(1)
        pts = rng.random((30, 2))
        keys = np.sort(rng.random(30))
        from repro.indices.base import BuildStats

        map_fn = lambda p: p[:, 0]  # noqa: E731
        model = builder.build_model(keys, pts, BuildStats(), map_fn)
        assert model.n_indexed == 30

    def test_selector_with_subset_pool(self):
        config = ELSIConfig(train_epochs=40, methods=("SP", "OG"))
        builder = ELSIModelBuilder(config, method="SP")
        assert [m.name for m in builder.pool] == ["SP", "OG"]


class TestConcurrencySafety:
    """Builders are reused across many models; confirm no state leaks."""

    def test_builder_reuse_across_indices(self, builder, osm_points):
        a = ZMIndex(builder=builder).build(osm_points[:500])
        b = ZMIndex(builder=builder).build(osm_points[500:1000])
        assert a.point_query(osm_points[0])
        assert b.point_query(osm_points[700])
        assert not b.point_query(osm_points[0]) or any(
            np.array_equal(osm_points[0], p) for p in osm_points[500:1000]
        )

    def test_independent_query_stats(self, builder, osm_points):
        a = ZMIndex(builder=builder).build(osm_points[:500])
        b = ZMIndex(builder=builder).build(osm_points[:500])
        a.point_query(osm_points[0])
        assert b.query_stats.queries == 0
