"""The leaf set: one way to predict a batch across many models.

A :class:`~repro.indices.rmi.ModelSet` must answer every key exactly as the
key's own member would — same ranges, bit for bit, same ``invocations`` —
because the member's measured bounds are the only guarantee a scan has.
It holds no bounds of its own, so making one (at build or at load) costs
no pass over the keys.
"""

import tracemalloc

import numpy as np
import pytest

from repro.indices.base import BuildStats, OriginalBuilder
from repro.indices.rmi import ModelSet, RMIModel
from repro.ml.trainer import TrainConfig


def _members(rng, sizes=(300, 50, 700, 1, 120), zero_span=None):
    """Trained leaves over disjoint key ranges, with their key sets."""
    partitions = []
    for i, n in enumerate(sizes):
        keys = i + np.sort(rng.random(n) ** 2)
        if i == zero_span:
            keys[:] = keys[0]
        partitions.append((keys, np.column_stack([keys, keys])))
    builder = OriginalBuilder(TrainConfig(epochs=30))
    stats = BuildStats()
    members = [builder.build_model(keys, pts, stats) for keys, pts in partitions]
    return members, [keys for keys, _ in partitions]


def _batch(rng, member_keys, size=400):
    """Member indices with stored keys, near misses and far misses."""
    member_idx = rng.integers(0, len(member_keys), size)
    keys = np.array([rng.choice(member_keys[i]) for i in member_idx])
    miss = rng.random(size) < 0.3
    keys[miss] += rng.normal(0.0, 0.5, int(miss.sum()))
    return member_idx, keys


def _case(name, rng):
    if name == "empty":
        members, member_keys = _members(rng)
        return members, member_keys, np.zeros(0, dtype=np.int64), np.zeros(0)
    if name == "one_member":
        members, member_keys = _members(rng)
        keys = np.concatenate([member_keys[2][::7], rng.random(20) * 6])
        return members, member_keys, np.full(len(keys), 2), keys
    members, member_keys = _members(rng, zero_span=1 if name == "zero_span" else None)
    return (members, member_keys, *_batch(rng, member_keys))


@pytest.mark.parametrize("case", ["random", "empty", "one_member", "zero_span"])
def test_search_ranges_equal_each_members_own(case):
    members, member_keys, member_idx, keys = _case(case, np.random.default_rng(3))
    leaves = ModelSet(members)
    before = [m.invocations for m in members]
    lo, hi = leaves.search_ranges(member_idx, keys)
    charged = [m.invocations - b for m, b in zip(members, before)]
    assert lo.dtype == hi.dtype == np.int64
    assert len(lo) == len(hi) == len(keys)
    for i, member in enumerate(members):
        mine = member_idx == i
        before_own = member.invocations
        own_lo, own_hi = member.search_ranges(keys[mine])
        np.testing.assert_array_equal(lo[mine], own_lo)
        np.testing.assert_array_equal(hi[mine], own_hi)
        assert charged[i] == member.invocations - before_own == int(mine.sum())
    # And the member's bounds hold for its keys asked through the set.
    for i, keys_i in enumerate(member_keys):
        lo, hi = leaves.search_ranges(np.full(len(keys_i), i), keys_i)
        ranks = np.arange(len(keys_i))
        assert np.all((lo <= ranks) & (ranks < hi))


def test_leaf_set_costs_no_pass_over_the_keys():
    """Making a two-stage RMI's leaf set, and loading the RMI back, stays
    within a few copies of the key column: no all-keys bound pass."""
    keys = np.sort(np.random.default_rng(0).random(200_000) ** 2)
    points = np.column_stack([keys, keys])
    builder = OriginalBuilder(TrainConfig(epochs=3))
    rmi = RMIModel(builder, branching=8).fit(keys, points, BuildStats())
    assert rmi.is_two_stage
    state = rmi.state_dict()
    tracemalloc.start()
    try:
        rmi._gather_leaves()
        loaded = RMIModel.from_state(state, builder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * keys.nbytes, f"peak {peak / keys.nbytes:.1f}x the key column"
    probe = keys[::97]
    for got, want in zip(loaded.search_ranges(probe), rmi.search_ranges(probe)):
        np.testing.assert_array_equal(got, want)
