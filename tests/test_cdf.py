"""Unit tests for the Kolmogorov-Smirnov machinery of Section III."""

import numpy as np
import pytest
from scipy import stats

from repro.spatial.cdf import (
    ks_distance,
    ks_distance_reference,
    uniform_dissimilarity,
)


class TestEmpiricalCDF:
    """The empirical CDFs the KS statistics compare."""

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ks_distance(np.empty(0), np.array([0.0]))
        with pytest.raises(ValueError, match="empty"):
            uniform_dissimilarity(np.empty(0))


class TestKSDistance:
    def test_identical_sets(self):
        keys = np.random.default_rng(0).random(100)
        assert ks_distance(keys, keys) == pytest.approx(0.0)

    def test_disjoint_sets(self):
        a = np.zeros(10)
        b = np.ones(10)
        assert ks_distance(a, b) == pytest.approx(1.0)

    def test_matches_reference_on_random_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            small = rng.random(rng.integers(1, 40))
            large = rng.random(rng.integers(50, 400))
            fast = ks_distance(small, large)
            assert fast == pytest.approx(ks_distance_reference(small, large), abs=1e-12)

    def test_matches_scipy_two_sample(self):
        rng = np.random.default_rng(2)
        a = rng.random(80)
        b = rng.normal(0.5, 0.2, 500)
        expected = stats.ks_2samp(a, b).statistic
        assert ks_distance(a, b) == pytest.approx(expected, abs=1e-12)

    def test_with_duplicates(self):
        a = np.array([0.5, 0.5, 0.5])
        b = np.array([0.25, 0.5, 0.5, 0.75])
        assert ks_distance(a, b) == pytest.approx(ks_distance_reference(a, b), abs=1e-12)

    def test_assume_sorted_flag(self):
        a = np.sort(np.random.default_rng(3).random(30))
        b = np.sort(np.random.default_rng(4).random(300))
        assert ks_distance(a, b, assume_sorted=True) == pytest.approx(
            ks_distance(a, b), abs=1e-15
        )

    def test_symmetry_of_statistic(self):
        # KS distance is symmetric even though our algorithm scans the
        # small side only.
        rng = np.random.default_rng(5)
        a = rng.random(20)
        b = rng.normal(0.4, 0.3, 200)
        assert ks_distance(a, b) == pytest.approx(ks_distance_reference(b, a), abs=1e-12)


class TestSimilarity:
    def test_bounds(self):
        a = np.random.default_rng(8).random(30)
        b = np.random.default_rng(9).random(300)
        assert 0.0 <= ks_distance(a, b) <= 1.0


class TestUniformDissimilarity:
    def test_uniform_keys_near_zero(self):
        keys = np.linspace(0, 1, 10_000)
        assert uniform_dissimilarity(keys) < 0.01

    def test_skewed_keys_large(self):
        keys = np.linspace(0, 1, 10_000) ** 8
        assert uniform_dissimilarity(keys) > 0.4

    def test_all_equal_keys(self):
        assert uniform_dissimilarity(np.full(10, 3.0)) == 0.0

    def test_matches_ks_test_against_uniform(self):
        rng = np.random.default_rng(10)
        keys = rng.random(2_000) ** 2
        lo, hi = keys.min(), keys.max()
        expected = stats.kstest(keys, stats.uniform(lo, hi - lo).cdf).statistic
        assert uniform_dissimilarity(keys) == pytest.approx(expected, abs=1e-9)

    def test_controlled_delta_recovered(self):
        """Generated sets with target distance delta measure back as delta."""
        from repro.data.controlled import keys_with_uniform_distance

        for delta in (0.1, 0.3, 0.5, 0.7):
            keys = keys_with_uniform_distance(20_000, delta, seed=1)
            uniform = np.random.default_rng(0).random(200_000)
            measured = ks_distance(keys, uniform)
            assert measured == pytest.approx(delta, abs=0.02)
