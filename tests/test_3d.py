"""d = 3 tests: the paper defines ELSI for general d >= 2 (Definition 1,
Algorithm 2's 2^d partitions, RL's eta^d grid); verify the stack beyond 2-d.
"""

import numpy as np
import pytest

import repro.indices.zm as zm
from repro.baselines import KDBIndex
from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.methods import RepresentativeSetMethod, SystematicSamplingMethod
from repro.indices import MLIndex, RSMIIndex, ZMIndex
from repro.queries.evaluate import brute_force_knn, brute_force_window
from repro.spatial.rect import Rect
from repro.spatial.zcurve import zvalues
from tests.brute import assert_knn, assert_windows


@pytest.fixture(scope="module")
def points_3d():
    rng = np.random.default_rng(0)
    clusters = rng.random((6, 3))
    assignment = rng.integers(0, 6, 2_000)
    pts = clusters[assignment] + rng.normal(0, 0.05, (2_000, 3))
    return np.clip(pts, 0, 1)


@pytest.fixture(scope="module")
def builder():
    return ELSIModelBuilder(ELSIConfig(train_epochs=80, eta=4), method="SP")


class TestIndices3D:
    @pytest.mark.parametrize("cls,kwargs", [
        (ZMIndex, {"bits": 10}),
        (MLIndex, {"n_references": 8}),
        (RSMIIndex, {"leaf_capacity": 500, "bits": 10}),
    ])
    def test_point_queries(self, cls, kwargs, points_3d, builder):
        index = cls(builder=builder, **kwargs).build(points_3d)
        assert all(index.point_query(p) for p in points_3d[::100])
        assert not index.point_query(np.array([2.0, 2.0, 2.0]))

    def test_zm_window_exact_3d(self, points_3d, builder):
        index = ZMIndex(builder=builder, bits=10).build(points_3d)
        rng = np.random.default_rng(1)
        for _ in range(15):
            center = points_3d[rng.integers(len(points_3d))]
            window = Rect.centered(center, 0.2)
            got = index.window_query(window)
            truth = brute_force_window(points_3d, window)
            assert len(got) == len(truth)

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_zm_split_scan_equals_brute_force_3d(
        self, points_3d, builder, exhaustive, monkeypatch
    ):
        """Three interleaved axes: the Z-interval split (shipped stopping
        rules, and cutting at every gap) changes no window or kNN answer."""
        if exhaustive:
            monkeypatch.setattr(zm, "_MIN_GAP_ROWS", 1)
            monkeypatch.setattr(zm, "_MIN_ROUND_ROWS", 0)
        data = np.vstack([points_3d, points_3d[:40]])  # 40 rows stored twice
        index = ZMIndex(builder=builder, bits=10).build(data)
        runs = []
        inner = index._scan_runs
        monkeypatch.setattr(
            index, "_scan_runs", lambda *a: runs.append(inner(*a)) or runs[-1]
        )
        mid = (index.bounds.lo_array + index.bounds.hi_array) / 2.0
        rng = np.random.default_rng(2)
        windows = [
            Rect.centered(mid, 0.01),  # straddles the top-level octant planes
            Rect.centered(mid, 0.4),
            Rect(tuple(mid - [0.3, 0.01, 0.3]), tuple(mid + [0.3, 0.01, 0.3])),
            Rect(tuple(data[5]), tuple(data[5])),  # zero extent, stored twice
            Rect((-1.0,) * 3, (2.0,) * 3),  # whole space and more
            Rect((1.5,) * 3, (2.0,) * 3),  # outside
            *(Rect.centered(data[i], 0.15) for i in rng.integers(0, len(data), 40)),
        ]
        assert_windows("ZM", data, windows, index.window_queries(windows))
        assert len(runs[0][0]) > len(windows)  # intervals were cut
        queries = np.vstack([data[::300], mid, [1.4, 1.4, -0.2]])
        assert_knn("ZM", data, queries, 7, index.knn_queries(queries, 7))

    def test_ml_knn_exact_3d(self, points_3d, builder):
        index = MLIndex(builder=builder, n_references=8).build(points_3d)
        q = np.array([0.5, 0.5, 0.5])
        got = index.knn_query(q, 10)
        truth = brute_force_knn(points_3d, q, 10)
        kth = np.linalg.norm(truth[-1] - q)
        assert (np.linalg.norm(got - q, axis=1) <= kth + 1e-12).all()

    def test_kdb_3d(self, points_3d):
        index = KDBIndex().build(points_3d)
        window = Rect.centered(np.array([0.5, 0.5, 0.5]), 0.3)
        got = index.window_query(window)
        assert len(got) == len(brute_force_window(points_3d, window))


class TestMethods3D:
    def test_rs_octree_partitioning(self, points_3d):
        """Algorithm 2 in 3-d: the quadtree becomes an octree (2^3 children)."""
        bounds = Rect.bounding(points_3d)
        keys = zvalues(points_3d, bounds, bits=10).astype(np.float64)
        order = np.argsort(keys, kind="stable")
        result = RepresentativeSetMethod(beta=100).compute_set(
            keys[order], points_3d[order], None
        )
        assert 5 <= len(result.train_keys) <= len(points_3d)

    def test_sp_3d(self, points_3d):
        bounds = Rect.bounding(points_3d)
        keys = np.sort(zvalues(points_3d, bounds, bits=10).astype(np.float64))
        pts = points_3d[np.argsort(zvalues(points_3d, bounds, bits=10))]
        result = SystematicSamplingMethod(rho=0.02).compute_set(keys, pts, None)
        assert len(result.train_keys) == pytest.approx(0.02 * len(keys), abs=2)

    def test_rl_eta_cubed_cells(self, points_3d):
        from repro.core.methods import ReinforcementLearningMethod

        method = ReinforcementLearningMethod(eta=3, steps=30, seed=0)
        centers = method._cell_centers(points_3d)
        assert centers.shape == (27, 3)  # eta^d


class TestUpdates3D:
    def test_update_processor_3d(self, points_3d, builder):
        from repro.core.update_processor import UpdateProcessor

        index = ZMIndex(builder=builder, bits=10).build(points_3d)
        processor = UpdateProcessor(index, ELSIConfig(train_epochs=60))
        p = np.array([0.11, 0.22, 0.33])
        processor.insert(p)
        assert processor.point_query(p)
        assert processor.delete(points_3d[4])
        assert not processor.point_query(points_3d[4])
        features = processor.update_features()
        assert features.shape == (5,)
