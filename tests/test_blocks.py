"""Unit tests for block storage."""

import numpy as np
import pytest

from repro.storage.blocks import BlockStore


@pytest.fixture()
def store():
    rng = np.random.default_rng(0)
    pts = rng.random((250, 2))
    keys = rng.random(250)
    return BlockStore(pts, keys, block_size=50), pts, keys


def test_sorted_by_key(store):
    s, _pts, _keys = store
    assert np.all(np.diff(s.keys) >= 0)


def test_points_follow_keys(store):
    s, pts, keys = store
    order = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(s.points, pts[order])


def test_scan_clipping(store):
    s, _, _ = store
    pts, keys = s.scan(-10, 10_000)
    assert len(pts) == 250
    pts, keys = s.scan(200, 100)
    assert len(pts) == 0


def test_block_reads_accounting(store):
    s, _, _ = store
    s.reset_block_reads()
    s.scan(0, 50)  # exactly one block
    assert s.block_reads == 1
    s.scan(49, 51)  # straddles two blocks
    assert s.block_reads == 3
    s.scan(10, 10)  # empty
    assert s.block_reads == 3


def test_duplicate_keys_kept():
    pts = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])
    keys = np.array([5.0, 5.0, 5.0])
    s = BlockStore(pts, keys)
    scanned, _ = s.scan(0, len(s))
    # Every copy is kept, in input order (the sort is stable).
    np.testing.assert_array_equal(scanned, pts)


def test_invalid_inputs():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        BlockStore(pts, np.zeros(2))
    with pytest.raises(ValueError):
        BlockStore(pts, np.zeros(3), block_size=0)
