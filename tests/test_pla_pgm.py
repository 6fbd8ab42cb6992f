"""Tests for the piecewise-linear model and the PGM-style builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.indices import PGMBuilder, ZMIndex
from repro.indices.base import BuildStats
from repro.ml.pla import PiecewiseLinearModel, fit_pla


class TestFitPLA:
    def test_line_needs_one_segment(self):
        x = np.linspace(0, 1, 100)
        model = fit_pla(x, 2 * x + 1, epsilon=0.01)
        assert model.n_segments == 1
        np.testing.assert_allclose(model.predict(x), 2 * x + 1, atol=0.01)

    def test_error_bound_holds(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.random(500))
        y = np.cumsum(rng.random(500))
        y = y / y[-1]
        for eps in (0.05, 0.01, 0.002):
            model = fit_pla(x, y, eps)
            err = np.abs(model.predict(x) - y).max()
            assert err <= eps + 1e-12

    def test_smaller_epsilon_more_segments(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.random(1_000))
        y = np.arange(1_000) / 999
        loose = fit_pla(x, y, 0.05).n_segments
        tight = fit_pla(x, y, 0.002).n_segments
        assert tight >= loose

    def test_step_function(self):
        x = np.linspace(0, 1, 100)
        y = (x > 0.5).astype(float)
        model = fit_pla(x, y, epsilon=0.01)
        assert model.n_segments >= 2
        assert abs(model.predict(np.array([0.1]))[0]) <= 0.011

    def test_single_point(self):
        model = fit_pla(np.array([0.5]), np.array([0.7]), 0.1)
        assert model.predict(np.array([0.5]))[0] == pytest.approx(0.7)

    def test_2d_input_accepted(self):
        x = np.linspace(0, 1, 10)
        model = fit_pla(x, x, 0.1)
        out = model.predict(x[:, None])
        assert out.shape == (10,)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            fit_pla(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            fit_pla(np.empty(0), np.empty(0), 0.1)
        with pytest.raises(ValueError):
            fit_pla(np.zeros(2), np.zeros(3), 0.1)
        with pytest.raises(ValueError):
            fit_pla(np.zeros(2), np.zeros(2), 0.0)

    @given(
        arrays(
            dtype=np.float64,
            shape=st.integers(2, 120),
            elements=st.floats(0.0, 1.0, allow_nan=False),
        ),
        st.floats(0.005, 0.2),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_bound_distinct_keys(self, raw, eps):
        """For distinct sorted keys the epsilon guarantee always holds."""
        x = np.unique(raw)
        if len(x) < 2:
            return
        y = np.arange(len(x)) / (len(x) - 1)
        model = fit_pla(x, y, eps)
        assert np.abs(model.predict(x) - y).max() <= eps + 1e-12


class TestPGMBuilder:
    def _sorted_partition(self, n=2_000, seed=0, duplicates=False):
        rng = np.random.default_rng(seed)
        keys = np.sort(rng.random(n) ** 2)
        if duplicates:
            keys[100:200] = keys[100]  # a 100-long duplicate run
            keys = np.sort(keys)
        pts = np.column_stack([keys, keys])
        return keys, pts

    def test_bounds_contain_every_key(self):
        keys, pts = self._sorted_partition()
        model = PGMBuilder(epsilon_positions=16).build_model(keys, pts, BuildStats())
        predicted = model.predict_positions(keys)
        deviation = np.abs(predicted - np.arange(len(keys)))
        assert deviation.max() <= model.err_l
        for i in range(0, len(keys), 131):
            lo, hi = model.search_ranges(np.array([keys[i]]))
            assert lo <= i < hi

    def test_bounds_hold_with_duplicate_runs(self):
        keys, pts = self._sorted_partition(duplicates=True)
        model = PGMBuilder(epsilon_positions=16).build_model(keys, pts, BuildStats())
        predicted = model.predict_positions(keys)
        deviation = np.abs(predicted - np.arange(len(keys)))
        assert deviation.max() <= model.err_l

    def test_declared_bound_formula(self):
        keys, pts = self._sorted_partition()
        model = PGMBuilder(epsilon_positions=32).build_model(keys, pts, BuildStats())
        assert model.err_l == 32 + 1 + 0  # distinct keys: no duplicate slack
        assert model.err_u == model.err_l

    def test_no_error_bound_measurement_pass(self):
        """PGM's bounds come from construction: no M(n) prediction pass."""
        keys, pts = self._sorted_partition()
        stats = BuildStats()
        PGMBuilder(epsilon_positions=16).build_model(keys, pts, stats)
        assert stats.error_bound_seconds == 0.0

    def test_integrates_with_zm(self, osm_points):
        index = ZMIndex(builder=PGMBuilder(epsilon_positions=32)).build(osm_points)
        assert all(index.point_query(p) for p in osm_points[::50])
        assert "PGM" in index.build_stats.methods_used

    def test_tighter_epsilon_tighter_scans(self, osm_points):
        wide = ZMIndex(builder=PGMBuilder(epsilon_positions=128)).build(osm_points)
        tight = ZMIndex(builder=PGMBuilder(epsilon_positions=8)).build(osm_points)
        assert tight.error_width < wide.error_width

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            PGMBuilder(epsilon_positions=0)

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            PGMBuilder().build_model(np.empty(0), np.empty((0, 2)), BuildStats())
