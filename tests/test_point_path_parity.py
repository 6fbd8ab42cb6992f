"""The key-ordered point path against the unsorted path it replaced.

``KeyedRun.point_lookup`` sorts a batch of probes by key once, then routes,
predicts, widens and probes on monotone keys and scatters the answers back.
The oracle below is the point path as it was before: the run's model
predicts the probes in the order they arrive — one unchunked forward pass
per model, the RMI's routed / unrouted mask split, the leaf set's stable
``int64`` grouping sort, the positions cast before they are clipped — and
:func:`~repro.perf.batching.batch_point_membership` sorts them itself.
Both must give every answer, the ``QueryStats`` triple, every store's
block reads, every model's ``invocations`` and the predicted-range-width
histogram alike, for all five indices, batch sizes either side of the
forward pass's chunk, duplicate probes and misses.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.data import load_dataset
from repro.indices import FloodIndex, LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.indices.base import TrainedModel, scan_ranges
from repro.indices.rmi import RMIModel
from repro.obs.metrics import get_registry
from repro.obs.query_obs import record_range_widths
from repro.perf.batching import batch_point_membership

N = 6_000
SIZES = (1, 2, 4095, 4096, 4097, 65_536)


# ----------------------------------------------------------------------
# The oracle: the unsorted point path, written out plainly.
# ----------------------------------------------------------------------
def oracle_forward(net, x: np.ndarray) -> np.ndarray:
    """One pass over the whole batch, a fresh temporary per operation."""
    h = np.asarray(x, dtype=np.float64)
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i != last:
            np.maximum(h, 0.0, out=h)
    return h[:, 0]


def oracle_positions(model: TrainedModel, keys: np.ndarray) -> np.ndarray:
    model.invocations += len(keys)
    n = model.n_indexed
    if n == 0:
        return np.zeros(len(keys), dtype=np.int64)
    pos = np.rint(oracle_forward(model.net, model.normalise(keys)[:, None]) * (n - 1))
    return np.minimum(np.maximum(pos.astype(np.int64), 0), n - 1)


def oracle_model_ranges(model: TrainedModel, keys: np.ndarray):
    pos = oracle_positions(model, keys)
    return scan_ranges(pos, model.n_indexed, model.err_l, model.err_u)


def oracle_rmi_ranges(rmi: RMIModel, keys: np.ndarray):
    """Route every key, then each branch's keys in arrival order: a filled
    branch through its leaf and its positions, an empty one through
    stage 1."""
    if not rmi.is_two_stage:
        return oracle_model_ranges(rmi.stage1, keys)
    pos = oracle_positions(rmi.stage1, keys)
    branch = np.clip((pos * rmi.branching) // max(rmi.n, 1), 0, rmi.branching - 1)
    lo = np.zeros(len(keys), dtype=np.int64)
    hi = np.zeros(len(keys), dtype=np.int64)
    for b in np.unique(branch).tolist():
        mine = branch == b
        positions = np.asarray(rmi._stage2_positions[b], dtype=np.int64)
        if len(positions) == 0:
            lo[mine], hi[mine] = oracle_model_ranges(rmi.stage1, keys[mine])
            continue
        lo_local, hi_local = oracle_model_ranges(rmi.stage2[b], keys[mine])
        lo[mine] = positions[lo_local]
        hi[mine] = positions[hi_local - 1] + 1
    return lo, hi


def oracle_point_queries(index, pts: np.ndarray) -> np.ndarray:
    """``point_queries`` with the unsorted lookup in each visited run."""
    runs, run, keys = index.point_plan(pts)
    index.query_stats.queries += len(pts)
    found = np.zeros(len(pts), dtype=bool)
    for r in np.unique(run[run >= 0]).tolist():
        rows = np.flatnonzero(run == r)
        keyed = runs[r]
        if isinstance(keyed.model, RMIModel):
            ranges = oracle_rmi_ranges(keyed.model, keys[rows])
        else:
            ranges = oracle_model_ranges(keyed.model, keys[rows])
        lo, hi = keyed.scan_bounds(*ranges)
        record_range_widths(index.name, lo, hi)
        found[rows] = batch_point_membership(
            keyed.store, lo, hi, keys[rows], pts[rows], atol=index.KEY_ATOL
        )
        index.query_stats.model_invocations += len(rows)
        index.query_stats.points_scanned += int(np.maximum(hi - lo, 0).sum())
    return found


# ----------------------------------------------------------------------
# What a call leaves behind
# ----------------------------------------------------------------------
def _models(index) -> list[TrainedModel]:
    models = []
    for run in index.runs():
        models += run.model.models if isinstance(run.model, RMIModel) else [run.model]
    return models


def _effects(index, answer, pts) -> tuple:
    """Answers and every counter a point batch moves, as plain values."""
    runs, models = list(index.runs()), _models(index)
    index.query_stats.reset()
    for run in runs:
        run.store.reset_block_reads()
    before = [m.invocations for m in models]
    get_registry().clear()
    found = answer(pts)
    hist = get_registry().histogram(
        "query.predicted_range_width", base=1.0, n_buckets=28, index=index.name
    )
    stats = index.query_stats
    return (
        found.tobytes(),
        (stats.model_invocations, stats.points_scanned, stats.queries),
        [run.store.block_reads for run in runs],
        [m.invocations - b for m, b in zip(models, before)],
        (hist.counts.tolist(), hist.total, hist.max),
    )


CASES = {
    "ZM": (ZMIndex, {}),
    "ML": (MLIndex, {}),
    "ML-64": (MLIndex, {"branching": 64}),  # empty branches: stage 1 answers
    "LISA": (LISAIndex, {}),
    "RSMI": (RSMIIndex, {}),
    "Flood": (FloodIndex, {}),
}


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    return load_dataset("OSM1", N, seed=0)


@pytest.fixture(scope="module")
def built(data):
    builder = ELSIModelBuilder(ELSIConfig(train_epochs=60), method="SP")
    return {
        name: cls(builder=builder, **kwargs).build(data)
        for name, (cls, kwargs) in CASES.items()
    }


def _probes(data: np.ndarray, b: int, seed: int) -> np.ndarray:
    """``b`` probes: stored points, repeats of a few of them, and misses."""
    rng = np.random.default_rng(seed)
    hits = data[rng.integers(0, len(data), b - b // 4)]
    if len(hits) > 8:
        hits[: len(hits) // 8] = hits[-1]  # one point asked many times
    probes = np.concatenate([hits, rng.random((b // 4, 2))])
    return probes[rng.permutation(b)]


@pytest.mark.parametrize("b", SIZES)
@pytest.mark.parametrize("name", list(CASES))
def test_point_path_equals_the_unsorted_path(built, data, tracer, name, b):
    index = built[name]
    calls = 40 if b == 1 else 1
    batches = [_probes(data, b, seed) for seed in range(calls)]
    for pts in batches:
        new = _effects(index, index.point_queries, pts)
        old = _effects(index, partial(oracle_point_queries, index), pts)
        assert new == old


@pytest.mark.parametrize("name", ["ZM", "ML", "ML-64", "LISA"])
def test_rmi_ranges_equal_the_mask_split(built, name):
    """Keys across the whole key range, stored keys and keys past both
    ends, sorted and not: the one path through the leaf set gives every
    range and charges every model what the routed / unrouted split did.
    ML-64's keys reach its empty branches."""
    rmi = built[name].run.model
    keys = built[name].run.store.keys
    span = keys[-1] - keys[0]
    probe = np.concatenate(
        [np.linspace(keys[0] - span / 8, keys[-1] + span / 8, 20_011), keys[::3]]
    )
    np.random.default_rng(1).shuffle(probe)
    if name == "ML-64":
        assert rmi._leaves.members[-1] is rmi.stage1
        pos = rmi.stage1._positions(probe)
        branch = np.clip((pos * rmi.branching) // rmi.n, 0, rmi.branching - 1)
        empty = [b for b, p in enumerate(rmi._stage2_positions) if len(p) == 0]
        assert np.isin(branch, empty).sum() > 100
    for keys_in in (probe, np.sort(probe)):
        got, want = [], []
        sides = ((rmi.search_ranges, got), (partial(oracle_rmi_ranges, rmi), want))
        for ranges, out in sides:
            before = [m.invocations for m in rmi.models]
            out.append([a.tolist() for a in ranges(keys_in)])
            out.append([m.invocations - b for m, b in zip(rmi.models, before)])
        assert got == want
