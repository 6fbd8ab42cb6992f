"""Unit tests for the six ELSI build methods (Section V)."""

import numpy as np
import pytest

from repro.core.methods import (
    ClusteringMethod,
    ModelReuseMethod,
    OriginalMethod,
    RandomSamplingMethod,
    ReinforcementLearningMethod,
    RepresentativeSetMethod,
    SystematicSamplingMethod,
    make_method_pool,
)
from repro.core.config import ELSIConfig
from repro.core.methods.base import MethodResult
from repro.core.methods.model_reuse import MethodFailure
from repro.spatial.cdf import ks_distance
from repro.spatial.rect import Rect
from repro.spatial.zcurve import zvalues


@pytest.fixture(scope="module")
def sorted_partition(osm_points):
    bounds = Rect.bounding(osm_points)
    keys = zvalues(osm_points, bounds).astype(np.float64)
    order = np.argsort(keys, kind="stable")
    map_fn = lambda pts: zvalues(pts, bounds).astype(np.float64)  # noqa: E731
    return keys[order], osm_points[order], map_fn


class TestMethodResult:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MethodResult(np.zeros(3), np.zeros(4), 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MethodResult(np.empty(0), np.empty(0), 0.0)


class TestSystematicSampling:
    def test_size_matches_rho(self, sorted_partition):
        keys, pts, _ = sorted_partition
        result = SystematicSamplingMethod(rho=0.01).compute_set(keys, pts, None)
        assert len(result.train_keys) == pytest.approx(0.01 * len(keys), abs=2)

    def test_pigeonhole_gap_bound(self, sorted_partition):
        """Every point's rank is within floor(1/rho) - 1 of a sampled rank
        (the Section V-A1 bound that no other sampling can beat)."""
        keys, pts, _ = sorted_partition
        rho = 0.02
        result = SystematicSamplingMethod(rho=rho).compute_set(keys, pts, None)
        n = len(keys)
        sampled_ranks = np.rint(result.train_ranks * (n - 1)).astype(int)
        step = int(1 / rho)
        for i in range(0, n, 131):
            gap = np.abs(sampled_ranks - i).min()
            assert gap <= step - 1

    def test_keys_sorted_and_ranks_match(self, sorted_partition):
        keys, pts, _ = sorted_partition
        result = SystematicSamplingMethod(rho=0.05).compute_set(keys, pts, None)
        assert np.all(np.diff(result.train_keys) >= 0)
        assert np.all((result.train_ranks >= 0) & (result.train_ranks <= 1))

    def test_last_point_included(self, sorted_partition):
        keys, pts, _ = sorted_partition
        result = SystematicSamplingMethod(rho=0.013).compute_set(keys, pts, None)
        assert result.train_keys[-1] == keys[-1]

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            SystematicSamplingMethod(rho=0.0)


class TestRandomSampling:
    def test_size(self, sorted_partition):
        keys, pts, _ = sorted_partition
        result = RandomSamplingMethod(rho=0.02, seed=0).compute_set(keys, pts, None)
        assert len(result.train_keys) == int(0.02 * len(keys))

    def test_worse_cdf_fit_than_systematic(self, sorted_partition):
        """RSP's D_S has a (weakly) larger KS distance to D than SP's —
        the paper's explanation for SP dominating RSP in Figure 7."""
        keys, pts, _ = sorted_partition
        sp = SystematicSamplingMethod(rho=0.01).compute_set(keys, pts, None)
        rsp_dists = []
        for seed in range(5):
            rsp = RandomSamplingMethod(rho=0.01, seed=seed).compute_set(keys, pts, None)
            rsp_dists.append(ks_distance(rsp.train_keys, keys, assume_sorted=True))
        sp_dist = ks_distance(sp.train_keys, keys, assume_sorted=True)
        assert sp_dist <= np.mean(rsp_dists) + 1e-9


class TestClustering:
    def test_produces_centroid_keys(self, sorted_partition):
        keys, pts, map_fn = sorted_partition
        result = ClusteringMethod(n_clusters=20, seed=0).compute_set(keys, pts, map_fn)
        assert len(result.train_keys) == 20
        assert np.all(np.diff(result.train_keys) >= 0)
        assert result.extra_seconds > 0

    def test_requires_map_fn(self, sorted_partition):
        keys, pts, _ = sorted_partition
        method = ClusteringMethod(n_clusters=5)
        assert not method.applicable(None)
        with pytest.raises(ValueError):
            method.compute_set(keys, pts, None)

    def test_clusters_capped_at_n(self):
        pts = np.random.default_rng(0).random((10, 2))
        keys = np.sort(np.random.default_rng(0).random(10))
        map_fn = lambda p: p[:, 0]  # noqa: E731
        result = ClusteringMethod(n_clusters=100).compute_set(keys, pts, map_fn)
        assert len(result.train_keys) == 10


class TestModelReuse:
    def test_returns_pretrained_state(self, sorted_partition):
        keys, pts, _ = sorted_partition
        method = ModelReuseMethod(epsilon=0.5, train_epochs=60, pool_points=64)
        result = method.compute_set(keys, pts, None)
        assert result.pretrained_state is not None
        assert "w0" in result.pretrained_state

    def test_prepare_returns_pool_size(self):
        method = ModelReuseMethod(epsilon=0.5, train_epochs=60, pool_points=64)
        n_mr = method.prepare()
        assert n_mr >= 3

    def test_smaller_epsilon_bigger_pool(self):
        small = ModelReuseMethod(epsilon=0.1, train_epochs=5, pool_points=32).prepare()
        large = ModelReuseMethod(epsilon=0.5, train_epochs=5, pool_points=32).prepare()
        assert small > large

    def test_pool_cache_is_per_seed(self):
        """Each seed pre-trains its own pool; the same seed reuses it."""
        from repro.core.methods.model_reuse import _build_pool

        args = (0.5, 8, 5, 32)
        seed0, seed1 = _build_pool(*args, seed=0), _build_pool(*args, seed=1)
        assert _build_pool(*args, seed=0) is seed0
        assert seed1 is not seed0
        assert not np.array_equal(seed0[0][1]["w0"], seed1[0][1]["w0"])

    def test_fails_when_no_match(self):
        """A pathological CDF far from every pool member raises MethodFailure
        (the paper: too-small epsilon may reuse nothing)."""
        method = ModelReuseMethod(epsilon=0.01, train_epochs=5, pool_points=32)
        # Strongly bimodal keys: far from the one-sided two-piece family.
        keys = np.sort(np.concatenate([np.zeros(500), np.ones(500)]))
        pts = np.column_stack([keys, keys])
        with pytest.raises(MethodFailure):
            method.compute_set(keys, pts, None)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            ModelReuseMethod(epsilon=0.0)


class TestRepresentativeSet:
    def test_partition_sizes(self, sorted_partition):
        keys, pts, _ = sorted_partition
        result = RepresentativeSetMethod(beta=100).compute_set(keys, pts, None)
        # Roughly n/beta points, at least a handful.
        assert 5 <= len(result.train_keys) <= len(keys)

    def test_selected_are_real_points_with_true_ranks(self, sorted_partition):
        keys, pts, _ = sorted_partition
        result = RepresentativeSetMethod(beta=200).compute_set(keys, pts, None)
        n = len(keys)
        ranks = np.rint(result.train_ranks * (n - 1)).astype(int)
        np.testing.assert_array_equal(result.train_keys, keys[ranks])

    def test_smaller_beta_more_points(self, sorted_partition):
        keys, pts, _ = sorted_partition
        small = RepresentativeSetMethod(beta=50).compute_set(keys, pts, None)
        large = RepresentativeSetMethod(beta=500).compute_set(keys, pts, None)
        assert len(small.train_keys) > len(large.train_keys)

    def test_representative_shares_cell_with_every_point(self, sorted_partition):
        """Algorithm 2's guarantee: every data point is approximated by a
        representative in the *same* final partition, i.e. each leaf of the
        beta-capacity quadtree contributes exactly its own median-in-mapped-
        space point."""
        from repro.spatial.quadtree import QuadTree

        keys, pts, _ = sorted_partition
        beta = 100
        result = RepresentativeSetMethod(beta=beta).compute_set(keys, pts, None)
        n = len(keys)
        selected = set(np.rint(result.train_ranks * (n - 1)).astype(int).tolist())
        tree = QuadTree(pts, max_points=beta)
        for leaf in tree.leaves():
            idx = np.sort(leaf.point_indices)
            median = int(idx[len(idx) // 2])
            assert median in selected  # the cell's own median was chosen
        assert len(selected) <= len(tree.leaves())


class TestReinforcementLearning:
    def test_produces_grid_subset(self, sorted_partition):
        keys, pts, map_fn = sorted_partition
        method = ReinforcementLearningMethod(eta=4, steps=40, seed=0)
        result = method.compute_set(keys, pts, map_fn)
        assert 2 <= len(result.train_keys) <= 16
        assert np.all(np.diff(result.train_keys) >= 0)

    def test_search_improves_distance(self, sorted_partition):
        """The RL search ends at a D_S no worse than the all-cells start."""
        keys, pts, map_fn = sorted_partition
        method = ReinforcementLearningMethod(eta=6, steps=120, seed=0)
        centers = method._cell_centers(pts)
        start_keys = np.sort(np.asarray(map_fn(centers), dtype=np.float64))
        start = ks_distance(start_keys, keys, assume_sorted=True)
        result = method.compute_set(keys, pts, map_fn)
        final = ks_distance(result.train_keys, keys, assume_sorted=True)
        assert final <= start + 1e-12

    def test_requires_map_fn(self, sorted_partition):
        keys, pts, _ = sorted_partition
        method = ReinforcementLearningMethod(eta=4)
        assert not method.applicable(None)
        with pytest.raises(ValueError):
            method.compute_set(keys, pts, None)

    def test_eta_controls_budget(self, sorted_partition):
        keys, pts, map_fn = sorted_partition
        small = ReinforcementLearningMethod(eta=2, steps=20).compute_set(keys, pts, map_fn)
        assert len(small.train_keys) <= 4

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ReinforcementLearningMethod(eta=1)
        with pytest.raises(ValueError):
            ReinforcementLearningMethod(zeta=0.0)


class TestOriginal:
    def test_identity(self, sorted_partition):
        keys, pts, _ = sorted_partition
        result = OriginalMethod().compute_set(keys, pts, None)
        np.testing.assert_array_equal(result.train_keys, keys)
        assert result.extra_seconds == 0.0


class TestMethodPool:
    def test_default_pool_order(self):
        pool = make_method_pool(ELSIConfig())
        assert [m.name for m in pool] == ["SP", "CL", "MR", "RS", "RL", "OG"]

    def test_custom_pool(self):
        pool = make_method_pool(ELSIConfig(methods=("SP", "OG")))
        assert [m.name for m in pool] == ["SP", "OG"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            make_method_pool(ELSIConfig(methods=("SP", "XX")))

    def test_applicability_flags(self):
        pool = {m.name: m for m in make_method_pool(ELSIConfig(methods=("SP", "CL", "MR", "RS", "RL", "OG")))}
        needs_map = {name for name, m in pool.items() if m.requires_map_fn}
        assert needs_map == {"CL", "RL"}  # the paper's LISA restriction
