"""Unit tests for the data generators and data set registry."""

import numpy as np
import pytest

from repro.data import DATASETS, load_dataset
from repro.data.controlled import (
    dataset_with_uniform_distance,
    keys_with_uniform_distance,
    population_cdf,
)
from repro.data.generators import skewed, uniform
from repro.data.real_like import nyc_like, osm_like, tpch_like


class TestGenerators:
    def test_uniform_shape_and_range(self):
        pts = uniform(1_000, d=3, seed=0)
        assert pts.shape == (1_000, 3)
        assert np.all((pts >= 0) & (pts <= 1))

    def test_uniform_is_uniform(self):
        pts = uniform(20_000, seed=1)
        # Each quadrant holds ~25% of points.
        counts = [
            ((pts[:, 0] < 0.5) & (pts[:, 1] < 0.5)).mean(),
            ((pts[:, 0] >= 0.5) & (pts[:, 1] >= 0.5)).mean(),
        ]
        assert all(abs(c - 0.25) < 0.02 for c in counts)

    def test_skewed_construction(self):
        """Skewed = Uniform with y -> y^4 (the HRR construction)."""
        base = uniform(5_000, seed=2)
        sk = skewed(5_000, seed=2)
        np.testing.assert_array_equal(sk[:, 0], base[:, 0])
        np.testing.assert_allclose(sk[:, 1], base[:, 1] ** 4)

    def test_skewed_concentrates_near_zero(self):
        sk = skewed(10_000, seed=3)
        assert (sk[:, 1] < 0.1).mean() > 0.5

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            uniform(-1)


class TestControlled:
    def test_population_cdf_distance_is_delta(self):
        x = np.linspace(0, 1, 10_001)
        for delta in (0.0, 0.2, 0.5, 0.8):
            gap = np.abs(population_cdf(x, delta) - x).max()
            assert gap == pytest.approx(delta, abs=1e-3)

    def test_cdf_monotone(self):
        x = np.linspace(0, 1, 1_000)
        for delta in (0.3, 0.9):
            assert np.all(np.diff(population_cdf(x, delta)) >= 0)

    def test_keys_within_unit_interval(self):
        keys = keys_with_uniform_distance(1_000, 0.5, seed=0)
        assert np.all((keys >= 0) & (keys <= 1))

    def test_delta_zero_is_uniformish(self):
        keys = keys_with_uniform_distance(5_000, 0.0, seed=0)
        from repro.spatial.cdf import uniform_dissimilarity

        assert uniform_dissimilarity(keys) < 0.02

    def test_dataset_marginals(self):
        pts = dataset_with_uniform_distance(5_000, 0.6, seed=1)
        from repro.spatial.cdf import uniform_dissimilarity

        for dim in range(2):
            measured = uniform_dissimilarity(pts[:, dim])
            assert measured == pytest.approx(0.6, abs=0.05)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            keys_with_uniform_distance(10, 1.0)
        with pytest.raises(ValueError):
            keys_with_uniform_distance(10, -0.1)

    def test_empty(self):
        assert len(dataset_with_uniform_distance(0, 0.5)) == 0


class TestRealLike:
    @pytest.mark.parametrize("gen", [osm_like, tpch_like, nyc_like])
    def test_shape_and_range(self, gen):
        pts = gen(3_000, seed=0)
        assert pts.shape == (3_000, 2)
        assert np.all((pts >= 0) & (pts <= 1))

    def test_osm_is_clustered(self):
        """OSM-like data is much more skewed than uniform (hub structure)."""
        pts = osm_like(10_000, seed=1)
        hist, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=16)
        uniform_hist, _, _ = np.histogram2d(*uniform(10_000, seed=1).T, bins=16)
        assert hist.max() > 3 * uniform_hist.max()

    def test_tpch_is_lattice(self):
        pts = tpch_like(5_000, seed=2)
        assert len(np.unique(pts[:, 0])) <= 50

    def test_nyc_extreme_skew(self):
        pts = nyc_like(10_000, seed=3)
        hist, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=20)
        # Most mass concentrates in a few cells (Manhattan).
        top = np.sort(hist.ravel())[::-1]
        assert top[:20].sum() > 0.5 * len(pts)


class TestRegistry:
    def test_all_names_present(self):
        assert set(DATASETS) == {"Uniform", "Skewed", "OSM1", "OSM2", "TPC-H", "NYC"}

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_load(self, name):
        pts = load_dataset(name, 500)
        assert pts.shape == (500, 2)

    def test_osm1_differs_from_osm2(self):
        a = load_dataset("OSM1", 2_000)
        b = load_dataset("OSM2", 2_000)
        assert not np.array_equal(a, b)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("Mars", 10)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            load_dataset("OSM1", -5)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            load_dataset("NYC", 100, seed=3), load_dataset("NYC", 100, seed=3)
        )
