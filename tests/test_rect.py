"""Unit tests for rectangle (MBR) algebra."""

import numpy as np
import pytest

from repro.spatial.rect import Rect


class TestConstruction:
    def test_unit(self):
        r = Rect.unit(3)
        assert r.ndim == 3
        assert r.area() == 1.0

    def test_bounding(self):
        pts = np.array([[0.1, 0.2], [0.5, 0.9], [0.3, 0.0]])
        r = Rect.bounding(pts)
        assert r.lo == (0.1, 0.0)
        assert r.hi == (0.5, 0.9)

    def test_centered(self):
        r = Rect.centered(np.array([0.5, 0.5]), 0.2)
        np.testing.assert_allclose(r.lo_array, [0.4, 0.4])
        np.testing.assert_allclose(r.hi_array, [0.6, 0.6])

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Rect((1.0, 0.0), (0.0, 1.0))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Rect((0.0,), (1.0, 1.0))

    def test_empty_bounding_rejected(self):
        with pytest.raises(ValueError):
            Rect.bounding(np.empty((0, 2)))

    def test_hashable(self):
        assert len({Rect.unit(2), Rect.unit(2), Rect.unit(3)}) == 2


class TestGeometry:
    def test_contains_point_boundary(self):
        r = Rect.unit(2)
        assert r.contains_point(np.array([0.0, 1.0]))
        assert not r.contains_point(np.array([1.0001, 0.5]))

    def test_contains_points_vectorised(self):
        r = Rect((0.0, 0.0), (0.5, 0.5))
        pts = np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_array_equal(r.contains_points(pts), [True, False, True])

    def test_intersects_touching(self):
        a = Rect((0.0, 0.0), (0.5, 0.5))
        b = Rect((0.5, 0.0), (1.0, 0.5))
        assert a.intersects(b)

    def test_disjoint(self):
        a = Rect((0.0, 0.0), (0.4, 0.4))
        b = Rect((0.6, 0.6), (1.0, 1.0))
        assert not a.intersects(b)
        assert a.intersection_area(b) == 0.0

    def test_intersection_area(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((0.5, 0.5), (1.5, 1.5))
        assert a.intersection_area(b) == pytest.approx(0.25)

    def test_union_enlargement(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((2.0, 0.0), (3.0, 1.0))
        u = a.union(b)
        assert u.lo == (0.0, 0.0)
        assert u.hi == (3.0, 1.0)
        assert a.enlargement(b) == pytest.approx(u.area() - a.area())

    def test_margin(self):
        r = Rect((0.0, 0.0), (2.0, 3.0))
        assert r.margin() == pytest.approx(5.0)

    def test_min_distance_sq(self):
        r = Rect((0.0, 0.0), (1.0, 1.0))
        assert r.min_distance_sq(np.array([0.5, 0.5])) == 0.0
        assert r.min_distance_sq(np.array([2.0, 1.0])) == pytest.approx(1.0)
        assert r.min_distance_sq(np.array([2.0, 2.0])) == pytest.approx(2.0)


class TestSplitMidpoint:
    def test_covers_parent_exactly(self):
        r = Rect((0.0, 0.0), (2.0, 4.0))
        children = r.split_midpoint()
        assert len(children) == 4
        assert sum(c.area() for c in children) == pytest.approx(r.area())
        for c in children:
            assert r.contains_points(np.stack([c.lo_array, c.hi_array])).all()

    def test_child_code_ordering(self):
        # Bit d set = upper half along dimension d.
        r = Rect.unit(2)
        children = r.split_midpoint()
        assert children[0].hi == (0.5, 0.5)  # 0b00: lower-lower
        assert children[1].lo[0] == 0.5      # 0b01: upper in dim 0
        assert children[2].lo[1] == 0.5      # 0b10: upper in dim 1
        assert children[3].lo == (0.5, 0.5)  # 0b11

    def test_3d_split(self):
        assert len(Rect.unit(3).split_midpoint()) == 8
