"""Unit tests for the iDistance mapping (ML-Index substrate)."""

import numpy as np
import pytest

from repro.indices import MLIndex
from repro.spatial.idistance import IDistanceMapping


@pytest.fixture(scope="module")
def mapping(request):
    rng = np.random.default_rng(0)
    pts = rng.random((1_000, 2))
    return IDistanceMapping.fit(pts, n_references=8, seed=0), pts


def test_keys_partition_disjoint(mapping):
    m, pts = mapping
    keys = m.keys(pts)
    ids, dists = m.nearest_reference(pts)
    # Key = id * stretch + dist, and dist < stretch, so partitions never
    # overlap in key space.
    np.testing.assert_array_equal((keys // m.stretch).astype(int), ids)
    assert np.all(dists < m.stretch)


def test_key_formula(mapping):
    m, pts = mapping
    ids, dists = m.nearest_reference(pts[:50])
    keys = m.keys(pts[:50])
    np.testing.assert_allclose(keys, ids * m.stretch + dists)


def test_nearest_reference_is_nearest(mapping):
    m, pts = mapping
    ids, dists = m.nearest_reference(pts[:100])
    all_dists = np.linalg.norm(pts[:100, None, :] - m.references[None], axis=2)
    np.testing.assert_array_equal(ids, np.argmin(all_dists, axis=1))
    np.testing.assert_allclose(dists, all_dists.min(axis=1), atol=1e-12)


def test_single_point_input(mapping):
    m, pts = mapping
    key = m.keys(pts[0])
    assert key.shape == (1,)


def test_annulus_covers_ball(sp_builder):
    """Every stored point within ``radius`` of the centre has its rank
    inside the annulus run of its partition that ML-Index scans
    (``MLIndex._annulus_ranks``) — the iDistance search invariant."""
    pts = np.random.default_rng(0).random((1_000, 2))
    index = MLIndex(n_references=8, builder=sp_builder).build(pts)
    store = index.run.store
    m = index.mapping
    for center, radius in (([0.5, 0.5], 0.2), ([0.1, 0.9], 0.05), ([0.3, 0.6], 0.0)):
        center = np.asarray(center)
        ref_dist = np.sqrt(((m.references - center) ** 2).sum(axis=1))[None, :]
        lo, hi = index._annulus_ranks(ref_dist, np.array([radius]))
        rows = np.flatnonzero(np.sqrt(((store.points - center) ** 2).sum(axis=1)) <= radius)
        ids, _ = m.nearest_reference(store.points[rows])
        for row, pid in zip(rows, ids):
            assert lo[pid] <= row < hi[pid]


def test_fit_fewer_points_than_references():
    pts = np.random.default_rng(1).random((3, 2))
    m = IDistanceMapping.fit(pts, n_references=10)
    assert m.n_references == 3


def test_fit_empty_rejected():
    with pytest.raises(ValueError):
        IDistanceMapping.fit(np.empty((0, 2)))
