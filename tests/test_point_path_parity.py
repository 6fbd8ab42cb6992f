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

A batch of one takes the membership kernel's binary search inside the
scanned slice; its oracle is the full-slice scan it replaced — every
scanned row tested with ``|key - q| <= atol`` and its coordinates — on
the probes where the two could part: distinct points sharing one key,
ML-Index keys within ``KEY_ATOL`` of a stored key, non-finite probes and
runs widened by native inserts.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.update_processor import _stored_copies
from repro.data import load_dataset
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.indices.base import TrainedModel, scan_ranges
from repro.indices.rmi import RMIModel
from repro.indices.run import KeyedRun
from repro.obs.metrics import get_registry
from repro.obs.query_obs import record_range_widths
from repro.perf.batching import batch_point_membership, sorted_point_membership
from repro.storage.blocks import BlockStore

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


def oracle_membership(store, lo, hi, keys, pts, atol) -> np.ndarray:
    """A batch of one as the full-slice scan: one ``store.scan``, then every
    scanned row's key and coordinates tested; larger batches through the
    unsorted kernel wrapper."""
    if len(keys) != 1:
        return batch_point_membership(store, lo, hi, keys, pts, atol)
    rows, row_keys = store.scan(int(lo[0]), int(hi[0]))
    found = np.zeros(1, dtype=bool)
    if len(rows):
        match = np.abs(row_keys - float(keys[0])) <= atol
        found[0] = (match & (rows == pts[0]).all(axis=1)).any()
    return found


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
        found[rows] = oracle_membership(
            keyed.store, lo, hi, keys[rows], pts[rows], index.KEY_ATOL
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


# ----------------------------------------------------------------------
# A batch of one: the binary search against the full-slice scan
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def twinned(data):
    """Every index over the data plus twins of 400 points moved 1e-9 along
    x: ZM and RSMI store the twins under their originals' Morton codes."""
    twins = data[:400] + [1e-9, 0.0]
    points = np.concatenate([data, twins])
    builder = ELSIModelBuilder(ELSIConfig(train_epochs=60), method="SP")
    return {
        name: cls(builder=builder, **kwargs).build(points)
        for name, (cls, kwargs) in CASES.items()
    }


def _one_at_a_time(index, probes) -> None:
    for p in probes:
        new = _effects(index, index.point_queries, p[None, :])
        old = _effects(index, partial(oracle_point_queries, index), p[None, :])
        assert new == old, p


def _edge_probes(data: np.ndarray) -> np.ndarray:
    """Stored points and their twins (both stored), points sharing a key
    with a stored one but not stored, ML-Index probes within ``KEY_ATOL`` of
    a stored key, and non-finite probes."""
    nan, inf = np.nan, np.inf
    return np.concatenate([
        data[:60],  # stored, each with a stored twin under the same key
        data[:60] + [1e-9, 0.0],  # the twins
        data[:60] + [-1e-9, 0.0],  # same key, not stored
        data[500:560] + [1e-13, 0.0],  # iDistance key within 1e-12, not stored
        data[600:640] + [0.0, -1e-13],
        [[nan, 0.5], [0.5, nan], [nan, nan], [inf, 0.5], [0.5, -inf],
         [-inf, -inf], [inf, nan], [1e300, 0.5], [-1e300, -1e300]],
    ])


@pytest.mark.parametrize("name", list(CASES))
def test_batch_of_one_equals_the_full_slice_scan(twinned, data, tracer, name):
    index = twinned[name]
    probes = _edge_probes(data)
    if name in ("ZM", "RSMI"):  # the twins really share keys
        assert (index.map(probes[:60]) == index.map(probes[60:120])).sum() > 50
    with np.errstate(invalid="ignore", over="ignore"):
        _one_at_a_time(index, probes)


def test_keys_within_the_tolerance_of_a_stored_key(built):
    """The kernel alone, one probe at a time, on ML-Index's store: stored
    keys moved by every offset around ``atol`` and ``2 * atol`` (where the
    rounding of ``q -+ atol`` and of ``|key - q|`` can disagree), with the
    row's own coordinates and a neighbour's, against the full-slice scan:
    answers and block reads alike."""
    index = built["ML"]
    store, atol = index.run.store, index.KEY_ATOL
    offsets = [0.0]
    for step in (atol / 2, atol, 2 * atol, 3 * atol):
        for scale in (1 - 1e-3, 1 - 2**-52, 1.0, 1 + 2**-52, 1 + 1e-3):
            offsets += [step * scale, -step * scale]
    rng = np.random.default_rng(4)
    for i in rng.choice(len(store) - 1, 80, replace=False).tolist():
        lo, hi = np.array([max(i - 7, 0)]), np.array([i + 9])
        for offset in offsets:
            key = np.array([store.keys[i] + offset])
            for row in (i, i + 1):
                point = store.points[row : row + 1]
                store.reset_block_reads()
                got = sorted_point_membership(store, lo, hi, key, point, atol)
                got_reads = store.block_reads
                store.reset_block_reads()
                want = oracle_membership(store, lo, hi, key, point, atol)
                assert (got.tolist(), got_reads) == (want.tolist(), store.block_reads)
    for key in (np.nan, np.inf, -np.inf):
        point = store.points[:1]
        for tol in (0.0, atol):
            got = sorted_point_membership(store, [0], [len(store)], [key], point, tol)
            want = oracle_membership(store, [0], [len(store)], [key], point, tol)
            assert got.tolist() == want.tolist() == [False]


def test_tolerance_edges_of_keys_near_zero():
    """Keys within a few ``atol`` of zero, where ``|key - q|`` and ``q -+
    atol`` round on different scales: ``q -+ atol`` alone would miss rows
    the predicate accepts, and the kernel's ``2 * atol`` margin must not."""
    atol = MLIndex.KEY_ATOL
    rng = np.random.default_rng(8)
    keys = np.sort(rng.uniform(-5e-15, 5e-15, 40))
    store = BlockStore(np.column_stack([keys, keys]), keys)
    keys = store.keys
    probes, points, answers = [], [], []
    for i in range(len(store)):
        point = store.points[i : i + 1]
        for offset in (atol, -atol):
            for step in range(-3, 4):  # q = key + offset, moved by 0-3 ulps
                probe = keys[i] + offset
                for _ in range(abs(step)):
                    probe = np.nextafter(probe, np.inf if step > 0 else -np.inf)
                got = sorted_point_membership(store, [0], [len(store)], [probe], point, atol)
                want = oracle_membership(store, [0], [len(store)], [probe], point, atol)
                assert got.tolist() == want.tolist()
                probes.append(probe)
                points.append(point[0])
                answers += got.tolist()
    # The same probes in batches of 2 and 128 (unsorted, and the sorted
    # kernel): each answers as it does alone.
    probes, points = np.array(probes), np.array(points)
    assert 0 < sum(answers) < len(answers)
    for b in (2, 128):
        for start in range(0, len(probes), b):
            part = slice(start, start + b)
            m = len(probes[part])
            lo, hi = np.zeros(m, dtype=np.int64), np.full(m, len(store))
            got = batch_point_membership(store, lo, hi, probes[part], points[part], atol)
            assert got.tolist() == answers[part], (b, start)
            order = np.argsort(probes[part])
            got = sorted_point_membership(
                store, lo, hi, probes[part][order], points[part][order], atol
            )
            assert got.tolist() == np.array(answers[part])[order].tolist(), (b, start)


def test_stored_copies_use_the_kernel_predicate():
    """The update processor counts a point's stored copies under the
    membership kernel's predicate: on keys near zero, at every offset
    around ``atol``, a probe has copies exactly when the kernel finds it,
    and as many as the rows with its coordinates and ``|key - q| <=
    atol``."""
    atol = MLIndex.KEY_ATOL
    rng = np.random.default_rng(8)
    keys = np.sort(rng.uniform(-5e-15, 5e-15, 40))
    keys = np.concatenate([keys, keys[:5]])  # five points stored twice
    store = BlockStore(np.column_stack([keys, keys]), keys)

    class OneRun:
        KEY_ATOL = atol

        def point_plan(self, pts):
            return [KeyedRun(store, None)], np.zeros(1, dtype=np.int64), self.key

    index = OneRun()
    for i in range(len(store)):
        point = store.points[i : i + 1]
        for offset in (0.0, atol, -atol):
            for step in range(-3, 4):
                probe = store.keys[i] + offset
                for _ in range(abs(step)):
                    probe = np.nextafter(probe, np.inf if step > 0 else -np.inf)
                index.key = np.array([probe])
                copies = _stored_copies(index, point[0])
                found = sorted_point_membership(store, [0], [len(store)], [probe], point, atol)
                match = (store.points == point).all(axis=1)
                match &= np.abs(store.keys - probe) <= atol
                assert copies == int(match.sum())
                assert (copies > 0) == bool(found[0])


@pytest.mark.parametrize("name", ["ZM", "ML", "LISA", "RSMI"])
def test_batch_of_one_after_native_inserts(data, tracer, name):
    """Runs widened by native inserts (``inserts > 0``): inserted points,
    stored points and misses, one at a time."""
    cls, kwargs = CASES[name]
    builder = ELSIModelBuilder(ELSIConfig(train_epochs=60), method="SP")
    index = cls(builder=builder, **kwargs).build(data[:3_000])
    rng = np.random.default_rng(6)
    inserted = np.concatenate([data[3_000:3_040], data[:10] + [2e-9, 0.0]])
    for p in inserted:
        index.insert(p)
    assert sum(run.inserts for run in index.runs()) > 0
    probes = np.concatenate([inserted, data[rng.integers(0, 3_000, 40)], rng.random((20, 2))])
    _one_at_a_time(index, probes)
