"""Property-based tests (hypothesis) on the core invariants.

Each property corresponds to a guarantee the system's correctness rests on:
space-filling-curve bijectivity, KS-distance correctness, quadtree
partition invariants, sampling gap bounds, predict-and-scan containment,
and window-query exactness of the Z-curve interval.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.spatial.cdf import ks_distance, ks_distance_reference
from repro.spatial.hilbert import hilbert_decode, hilbert_encode
from repro.spatial.quadtree import MAX_DEPTH, QuadTree
from repro.spatial.rect import Rect
from repro.spatial.zcurve import morton_decode, morton_encode, zvalues

# Bounded sizes keep each example fast; hypothesis explores the space.
coords_2d = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 64), st.just(2)),
    elements=st.integers(0, 2**12 - 1),
)

float_keys = arrays(
    dtype=np.float64,
    shape=st.integers(1, 80),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)

points_2d = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 120), st.just(2)),
    elements=st.floats(0.0, 1.0, allow_nan=False, width=32),
)


@given(coords_2d)
@settings(max_examples=60, deadline=None)
def test_morton_round_trip(coords):
    decoded = morton_decode(morton_encode(coords, bits=12), d=2, bits=12)
    np.testing.assert_array_equal(decoded, coords.astype(np.uint64))


@given(coords_2d)
@settings(max_examples=60, deadline=None)
def test_hilbert_round_trip(coords):
    decoded = hilbert_decode(hilbert_encode(coords, bits=12), d=2, bits=12)
    np.testing.assert_array_equal(decoded, coords.astype(np.uint64))


@given(coords_2d)
@settings(max_examples=40, deadline=None)
def test_morton_codes_unique_iff_coords_unique(coords):
    codes = morton_encode(coords, bits=12)
    n_unique_coords = len({tuple(c) for c in coords.tolist()})
    assert len(set(codes.tolist())) == n_unique_coords


@given(float_keys, float_keys)
@settings(max_examples=80, deadline=None)
def test_ks_distance_fast_equals_reference(small, large):
    fast = ks_distance(small, large)
    reference = ks_distance_reference(small, large)
    assert abs(fast - reference) < 1e-12
    assert 0.0 <= fast <= 1.0


@given(float_keys)
@settings(max_examples=40, deadline=None)
def test_ks_distance_to_self_is_zero(keys):
    assert ks_distance(keys, keys) == 0.0


@given(points_2d, st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_quadtree_partition_invariants(points, max_points):
    tree = QuadTree(points, max_points=max_points)
    leaves = tree.leaves()
    indices = np.concatenate([leaf.point_indices for leaf in leaves]) if leaves else np.empty(0)
    # Every point in exactly one leaf.
    assert sorted(indices.tolist()) == list(range(len(points)))
    # Capacity respected unless the depth cap was hit.
    for leaf in leaves:
        assert leaf.size <= max_points or leaf.depth == MAX_DEPTH


@given(points_2d)
@settings(max_examples=30, deadline=None)
def test_window_zvalue_containment(points):
    """Any rectangle's corner Z-values bracket the Z-values of all points
    inside it — the exactness foundation of ZM window queries."""
    bounds = Rect.unit(2)
    window = Rect((0.25, 0.25), (0.7, 0.8))
    inside = points[window.contains_points(points)]
    if len(inside) == 0:
        return
    z_inside = zvalues(inside, bounds)
    z_corners = zvalues(np.array([window.lo, window.hi]), bounds)
    assert np.all(z_inside >= z_corners[0])
    assert np.all(z_inside <= z_corners[1])


@given(st.integers(2, 500), st.floats(0.001, 1.0))
@settings(max_examples=60, deadline=None)
def test_systematic_sampling_gap_bound(n, rho):
    """The pigeonhole bound of Section V-A1: |i - j| <= floor(1/rho) - 1."""
    from repro.core.methods.sampling import SystematicSamplingMethod

    keys = np.sort(np.random.default_rng(0).random(n))
    pts = np.column_stack([keys, keys])
    result = SystematicSamplingMethod(rho=rho).compute_set(keys, pts, None)
    sampled = np.rint(result.train_ranks * (n - 1)).astype(int)
    step = max(1, int(1.0 / rho))
    for i in range(n):
        assert np.abs(sampled - i).min() <= step - 1


@given(
    arrays(
        dtype=np.float64,
        shape=st.integers(16, 200),
        elements=st.floats(0.0, 1.0, allow_nan=False),
    )
)
@settings(max_examples=25, deadline=None)
def test_predict_and_scan_containment(keys):
    """A model trained on *any* reduced subset still satisfies the
    predict-and-scan invariant after measure_error_bounds (Section III)."""
    from repro.indices.base import TrainedModel
    from repro.ml.ffn import FFN

    sorted_keys = np.sort(keys)
    model = TrainedModel(
        FFN([1, 8, 1], seed=0), float(sorted_keys[0]), float(sorted_keys[-1]), len(sorted_keys)
    )
    # Deliberately untrained network: bounds must still make scans correct.
    model.measure_error_bounds(sorted_keys)
    for i in range(0, len(sorted_keys), 7):
        lo, hi = model.search_ranges(np.array([sorted_keys[i]]))
        assert lo <= i < hi


@given(points_2d)
@settings(max_examples=20, deadline=None)
def test_rect_bounding_contains_all(points):
    box = Rect.bounding(points)
    assert box.contains_points(points).all()


@given(
    st.floats(0.0, 0.89),
    st.integers(500, 3_000),
)
@settings(max_examples=20, deadline=None)
def test_controlled_distance_tracks_target(delta, n):
    """Generated key sets realise their target KS distance from uniform."""
    from repro.data.controlled import keys_with_uniform_distance
    from repro.spatial.cdf import uniform_dissimilarity

    keys = keys_with_uniform_distance(n, delta, seed=0)
    measured = uniform_dissimilarity(keys)
    assert abs(measured - delta) < 0.08 + 2.0 / np.sqrt(n)
