"""The map-and-sort / predict-and-scan contract shared by all base indices.

Section III's applicability conditions become code here:

- :class:`TrainedModel` is an index model ``M``: it predicts a storage
  address from a mapped key and carries the empirical error bounds
  ``err_l``/``err_u`` measured over the *full* data set, so a scan of
  ``[M(q.key) - err_l, M(q.key) + err_u]`` is guaranteed to contain any
  indexed point (predict-and-scan correctness).
- :class:`ModelBuilder` is the seam ELSI plugs into.  Its
  :meth:`~ModelBuilder.build_model` receives the key-sorted data and returns
  a trained model; :class:`OriginalBuilder` (the paper's OG) trains on the
  full set, while ELSI's build processor trains on an engineered subset
  ``D_S`` (Algorithm 1).  Both fit through :func:`fit_model`: one serial
  training loop, then one bound pass over the full partition.
- :class:`LearnedSpatialIndex` is the query-facing API: point, window and
  kNN queries plus build statistics.  An index only *plans* a query (which
  rows of which key-sorted run to scan); the scan is written once, here.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.ml.ffn import FFN
from repro.ml.pla import PiecewiseLinearModel
from repro.ml.trainer import TrainConfig, train_regressor
from repro.obs.query_obs import record_range_widths
from repro.obs.trace import span as _span
from repro.perf.batching import batch_window_refine, flat_window_refine, merge_ranges
from repro.queries.types import check_k
from repro.spatial.rect import Rect

__all__ = [
    "BuildStats",
    "InsertRefused",
    "LearnedSpatialIndex",
    "MapFn",
    "ModelBuilder",
    "OriginalBuilder",
    "QueryStats",
    "TrainedModel",
    "argsort_ids",
    "fit_model",
    "group_by",
    "normalise_keys",
    "predicted_positions",
    "rank_by_owner",
    "scan_ranges",
]

# A base index's map() for one partition: coordinates -> mapped keys.
MapFn = Callable[[np.ndarray], np.ndarray]

#: Net classes a snapshot can hold, by the name :meth:`TrainedModel.state_dict`
#: tags them with.
_NET_TYPES = {cls.__name__: cls for cls in (FFN, PiecewiseLinearModel)}


# The arithmetic of predict-and-scan, written once: elementwise, so the
# positions and ranges run on one model's scalars (:class:`TrainedModel`) or
# on a key batch's per-member arrays (:class:`~repro.indices.rmi.ModelSet`)
# bit for bit alike.
def normalise_keys(keys: np.ndarray, key_lo: float, span: float) -> np.ndarray:
    """Min-max key normalisation; a degenerate range (``span <= 0``) maps to 0."""
    if span > 0.0:
        return (keys - key_lo) / span
    return np.zeros(np.shape(keys))


def predicted_positions(raw: np.ndarray, n_indexed) -> np.ndarray:
    """Network outputs in [0, 1] as sorted positions clipped to
    ``[0, n - 1]`` (``n >= 1``), in float before the integer cast: an
    output the cast cannot hold (NaN from a NaN key, or past ``2**63``)
    takes the edge it is beyond, NaN position 0, with no invalid cast."""
    pos = np.fmin(np.fmax(np.rint(raw * (n_indexed - 1)), 0.0), n_indexed - 1)
    return pos.astype(np.int64)


def scan_ranges(
    pos: np.ndarray, n_indexed, err_l, err_u
) -> tuple[np.ndarray, np.ndarray]:
    """Half-open scan range ``[lo, hi)`` around each predicted position."""
    return np.maximum(pos - err_l, 0), np.minimum(pos + (err_u + 1), n_indexed)


@dataclass
class BuildStats:
    """Per-build timing decomposition matching Section VI.

    ``prepare_seconds`` is ``cost_dp`` (mapping + sorting), ``train_seconds``
    is ``T(|D_S|)``, ``extra_seconds`` is the method-specific ``cost_ex``
    (sampling, clustering, partitioning, RL search, ...), and
    ``error_bound_seconds`` the ``M(n)`` full-set prediction pass.
    """

    prepare_seconds: float = 0.0
    train_seconds: float = 0.0
    extra_seconds: float = 0.0
    error_bound_seconds: float = 0.0
    train_set_size: int = 0
    n_models: int = 0
    methods_used: dict[str, int] = field(default_factory=dict)


@dataclass
class QueryStats:
    """Counters accumulated across queries (reset with :meth:`reset`).

    Charged by the batch methods (a per-query call is a batch of one):

    1. *Additive*: one call with ``b`` queries charges exactly the sum of
       ``b`` calls with one query, for all three counters.  Work a batch
       shares (merged block reads, one forward pass for many keys) shows
       in wall time and ``BlockStore.block_reads``, never here, so the
       paper's per-query cost figures do not depend on batching.
    2. ``model_invocations`` counts predictions actually evaluated, one
       per key handed to a model; scan boundaries located by
       ``searchsorted`` alone (ZM windows, ML-Index window and kNN
       annuli) charge none.

    ``queries`` counts index-level queries: an expanding-window kNN
    charges one per window it issues.
    """

    model_invocations: int = 0
    points_scanned: int = 0
    queries: int = 0

    def reset(self) -> None:
        self.model_invocations = 0
        self.points_scanned = 0
        self.queries = 0


class TrainedModel:
    """An index model ``M`` with empirical error bounds.

    Predicts the sorted position (address) of a mapped key among the ``n``
    indexed keys.  Keys are min-max normalised to [0, 1] before hitting the
    network; predictions are de-normalised to integer positions.

    Parameters
    ----------
    net:
        Any object with a ``predict(x) -> y`` over 2-D float input; an
        :class:`~repro.ml.ffn.FFN` in practice.
    key_lo, key_hi:
        Normalisation range, taken from the *full* data set so queries and
        error-bound measurement agree.
    n_indexed:
        Number of indexed points (the address space size).
    """

    def __init__(
        self,
        net: FFN,
        key_lo: float,
        key_hi: float,
        n_indexed: int,
        method_name: str = "OG",
        train_set_size: int = 0,
    ) -> None:
        if n_indexed < 0:
            raise ValueError(f"n_indexed must be >= 0, got {n_indexed}")
        self.net = net
        self.key_lo = float(key_lo)
        self.key_hi = float(key_hi)
        self.n_indexed = int(n_indexed)
        self.method_name = method_name
        self.train_set_size = train_set_size
        self.err_l = 0
        self.err_u = 0
        self.invocations = 0

    # ------------------------------------------------------------------
    def normalise(self, keys: np.ndarray) -> np.ndarray:
        """Min-max key normalisation (degenerate range maps to 0)."""
        keys = np.asarray(keys, dtype=np.float64)
        return normalise_keys(keys, self.key_lo, self.key_hi - self.key_lo)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """Predicted positions of float64 ``keys`` without invocation
        accounting (pure)."""
        if self.n_indexed == 0:
            return np.zeros(len(keys), dtype=np.int64)
        x = normalise_keys(keys, self.key_lo, self.key_hi - self.key_lo)
        return predicted_positions(self.net.predict(x[:, None]), self.n_indexed)

    def predict_positions(self, keys: np.ndarray) -> np.ndarray:
        """Predicted sorted positions (clipped to [0, n-1]) for ``keys``."""
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim == 0:
            keys = keys[None]
        self.invocations += len(keys)
        return self._positions(keys)

    def measure_error_bounds(self, all_keys_sorted: np.ndarray) -> None:
        """Record ``err_l``/``err_u`` over the full sorted key set.

        Guarantees that for every indexed key at true position ``i`` with
        prediction ``p``: ``i in [p - err_l, p + err_u]`` — the invariant the
        predict-and-scan paradigm relies on (Section III, condition 2).
        """
        n = len(all_keys_sorted)
        if n == 0:
            self.err_l = self.err_u = 0
            return
        predicted = self.predict_positions(all_keys_sorted)
        over = predicted - np.arange(n)  # positive: predicted past the point
        self.err_l = int(max(0, over.max()))
        self.err_u = int(max(0, (-over).max()))

    def search_ranges(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Half-open scan range ``[lo, hi)`` per key under the error bounds."""
        return scan_ranges(
            self.predict_positions(keys), self.n_indexed, self.err_l, self.err_u
        )

    @property
    def error_width(self) -> int:
        """``err_l + err_u`` — the paper's |Error| column in Table I."""
        return self.err_l + self.err_u

    # ------------------------------------------------------------------
    #: The constructor's arguments after ``net``, in order: with the net
    #: and the measured bounds, a model's durable state.
    _INIT_FIELDS = ("key_lo", "key_hi", "n_indexed", "method_name", "train_set_size")

    def state_dict(self) -> dict:
        """Durable state: the net, the normalisation range and the measured
        bounds — a stored model is only safe to scan from because its
        bounds travel with it."""
        net_type = type(self.net).__name__
        if net_type not in _NET_TYPES:
            raise TypeError(f"cannot persist model net of type {net_type}")
        state = {"net_type": net_type, "net": self.net.state_dict()}
        for name in (*self._INIT_FIELDS, "err_l", "err_u"):
            state[name] = getattr(self, name)
        return state

    @classmethod
    def from_state(cls, state: dict) -> "TrainedModel":
        """Rebuild a model from :meth:`state_dict` output."""
        if state["net_type"] not in _NET_TYPES:
            raise ValueError(f"unknown net type {state['net_type']!r}")
        net = _NET_TYPES[state["net_type"]].from_state(state["net"])
        model = cls(net, *(state[name] for name in cls._INIT_FIELDS))
        model.err_l = state["err_l"]
        model.err_u = state["err_u"]
        return model


def fit_model(
    sorted_keys: np.ndarray,
    train_keys: np.ndarray,
    train_ranks: np.ndarray,
    stats: BuildStats,
    *,
    hidden: int,
    train_config: TrainConfig | None,
    method_name: str,
    seed: int,
    pretrained_state: dict | None = None,
    extra_seconds: float = 0.0,
) -> TrainedModel:
    """Fit one index model over a partition's ``sorted_keys`` and charge
    its costs to ``stats``: train an FFN on the (key, rank) pairs of the
    training set (``train_ranks`` normalised to [0, 1]) — or, for MR, load
    ``pretrained_state`` with no online training (``T = 0``) — then measure
    the bounds over the *full* partition (the ``M(n)`` pass).
    ``extra_seconds`` is the builder's ``cost_ex`` for this model."""
    net = FFN([1, hidden, 1], seed=seed)
    model = TrainedModel(
        net=net,
        key_lo=float(sorted_keys[0]),
        key_hi=float(sorted_keys[-1]),
        n_indexed=len(sorted_keys),
        method_name=method_name,
        train_set_size=len(train_keys),
    )
    with _span("build.train", method=method_name, train_size=len(train_keys)):
        if pretrained_state is not None:
            net.load_state_dict(pretrained_state)
            train_seconds = 0.0
        else:
            x = model.normalise(np.asarray(train_keys, dtype=np.float64))
            result = train_regressor(net, x, np.asarray(train_ranks), train_config)
            train_seconds = result.elapsed_seconds
    started = time.perf_counter()
    with _span("build.error_bounds", n=model.n_indexed) as eb_span:
        model.measure_error_bounds(sorted_keys)
        eb_span.set(err_l=model.err_l, err_u=model.err_u)
    stats.extra_seconds += extra_seconds
    stats.train_seconds += train_seconds
    stats.error_bound_seconds += time.perf_counter() - started
    stats.train_set_size += len(train_keys)
    stats.n_models += 1
    stats.methods_used[method_name] = stats.methods_used.get(method_name, 0) + 1
    return model


class ModelBuilder(ABC):
    """Strategy that turns key-sorted data into a :class:`TrainedModel`.

    This is ELSI's integration point: base indices never train directly,
    they ask their builder.  The builder receives the *sorted* mapped keys
    and the points in the same order (Algorithm 1 runs after map + sort).

    ``map_fn`` is the base index's ``map()`` for this partition: it turns
    arbitrary coordinates into mapped keys.  Build methods that synthesise
    points not in ``D`` (CL, RL) need it; an index whose mapping depends on
    ``D`` itself (LISA's data-derived grid) passes ``None``, which is
    exactly the paper's applicability restriction for those methods.
    """

    @abstractmethod
    def build_model(
        self,
        sorted_keys: np.ndarray,
        sorted_points: np.ndarray,
        stats: BuildStats,
        map_fn: "MapFn | None" = None,
    ) -> TrainedModel:
        """Train an index model for the given partition and record costs."""


class OriginalBuilder(ModelBuilder):
    """The paper's OG method: train on the full data set (no reduction)."""

    def __init__(
        self,
        train_config: TrainConfig | None = None,
        hidden: int = 16,
        seed: int = 0,
    ) -> None:
        self.train_config = train_config
        self.hidden = hidden
        self.seed = seed

    def build_model(
        self,
        sorted_keys: np.ndarray,
        sorted_points: np.ndarray,
        stats: BuildStats,
        map_fn: MapFn | None = None,
    ) -> TrainedModel:
        n = len(sorted_keys)
        if n == 0:
            raise ValueError("cannot build a model over an empty partition")
        return fit_model(
            sorted_keys,
            sorted_keys,
            np.arange(n) / max(n - 1, 1),
            stats,
            hidden=self.hidden,
            train_config=self.train_config,
            method_name="OG",
            seed=self.seed,
        )


class InsertRefused(ValueError):
    """The index's built-in insertion cannot place this point; the index is
    unchanged (the update processor keeps such a point on its side list)."""


def argsort_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for integer ids in ``[0, n)``.

    NumPy radix-sorts integers of at most 16 bits and timsorts wider ones,
    so the ids are narrowed to ``uint8`` / ``uint16`` where ``n`` allows:
    a stable permutation is unique, so the narrowing changes nothing but
    the time (65 536 ids in 9 groups: 3 vs 42 ns per id in random order,
    7 vs 11 in near-sorted order; docs/performance.md, "Key-ordered point
    path")."""
    if n <= 1 << 8:
        ids = ids.astype(np.uint8)
    elif n <= 1 << 16:
        ids = ids.astype(np.uint16)
    return np.argsort(ids, kind="stable")


def group_by(ids: np.ndarray, n: int) -> Iterator[tuple[int, "np.ndarray | slice"]]:
    """``(id, positions)`` for each id in ``[0, n)`` that ``ids`` holds,
    ids ascending, each id's positions in order; ``-1`` entries are
    skipped.  One stable :func:`argsort_ids` and one ``bincount`` — or,
    when every entry has one id (a one-run plan, every per-query call), no
    permutation: the positions are ``slice(None)``."""
    if len(ids) and (len(ids) == 1 or (ids == ids[0]).all()):
        if ids[0] >= 0:
            yield int(ids[0]), slice(None)
        return
    shifted = ids + 1  # slot 0: the -1 entries
    order = argsort_ids(shifted, n + 1)
    counts = np.bincount(shifted, minlength=n + 1)
    stops = np.cumsum(counts).tolist()
    for i in np.flatnonzero(counts[1:]).tolist():
        yield i, order[stops[i] : stops[i + 1]]


def rank_by_owner(owner: np.ndarray, dist: np.ndarray, owners: int) -> np.ndarray:
    """The permutation ``np.lexsort((dist, owner))`` for candidates owned by
    queries ``[0, owners)``: owner-major, distance-minor (NaN last), exact
    ties in scan order — without lexsort's stable float comparison sort.

    One unstable ``argsort`` of the distances, then a stable one of their
    owners (:func:`argsort_ids`: a radix sort up to 65 536 owners); the
    second sort keeps distance order within each owner, and only the runs
    of equal (owner, distance) pairs, NaN equal to NaN, are put back into
    scan order.  A stable float ``argsort`` is timsort, several times the cost
    of both passes (docs/performance.md); one owner takes it alone."""
    if owners <= 1:
        return dist.argsort(kind="stable")
    order = np.argsort(dist)
    order = order.take(argsort_ids(owner.take(order), owners))
    own, ranked = owner.take(order), dist.take(order)
    tied = (own[1:] == own[:-1]) & (
        (ranked[1:] == ranked[:-1]) | (np.isnan(ranked[1:]) & np.isnan(ranked[:-1]))
    )
    if tied.any():
        # Positions in a tied run, each run numbered: sorting
        # ``run * len + scan position`` keeps every run in its own slots.
        starts = np.concatenate(([True], ~tied))
        inrun = np.concatenate((tied, [False])) | np.concatenate(([False], tied))
        at = np.flatnonzero(inrun)
        run = np.cumsum(starts[at]) * len(order)
        order[at] = np.sort(run + order[at]) - run
    return order


class LearnedSpatialIndex(ABC):
    """Query-facing API shared by ZM, ML-Index, RSMI and LISA.

    Subclasses implement :meth:`build` (map + sort + train through the
    builder) and *plan* the two batch query kinds: :meth:`point_plan` and
    :meth:`window_plan` map, route, predict and widen, and say which rows
    of which :class:`~repro.indices.run.KeyedRun` hold the answer.  The
    scan is written once, here: :meth:`point_queries` and
    :meth:`window_queries` / :meth:`window_rows` execute any plan, and
    :meth:`knn_queries` runs over window plans (:meth:`_window_rows`).  The
    per-query spellings of the paper's API are batches of one, so an index
    has a single query path and "batch == scalar" holds by construction.
    ``build_stats`` and ``query_stats`` expose the cost counters every
    experiment reports (see :class:`QueryStats` for how a batch is
    charged).
    """

    name: str = "base"

    #: Probe keys match stored keys within this tolerance (exact by
    #: default; ML-Index's keys are floating distances).
    KEY_ATOL = 0.0

    #: Constructor parameters a snapshot carries (``block_size`` aside).
    state_params: tuple[str, ...] = ()

    #: Built-in insertions since the build (a snapshot header field): the
    #: run's count where one run is the whole index, else 0.
    _native_inserts = 0

    def __init__(self, builder: ModelBuilder | None = None, block_size: int = 100) -> None:
        self.builder = builder or OriginalBuilder()
        self.block_size = block_size
        self.build_stats = BuildStats()
        self.query_stats = QueryStats()
        self.bounds: Rect | None = None
        self.n_points = 0

    # ------------------------------------------------------------------
    @abstractmethod
    def build(self, points: np.ndarray) -> "LearnedSpatialIndex":
        """Index ``points``; returns self for chaining."""

    @abstractmethod
    def point_plan(self, pts: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
        """Where each probe of a non-empty ``(b, d)`` batch can be stored:
        ``(runs, run, key)`` — a table of keyed runs, the index into it of
        each probe's run (``-1``: answered False without a scan) and the
        probe's key in that run.  Model invocations spent routing are the
        plan's to charge; the run's own prediction is charged when the
        probe is handed to it."""

    @abstractmethod
    def window_plan(
        self, win_lo: np.ndarray, win_hi: np.ndarray
    ) -> tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The rows to scan for each window of a non-empty batch, given as
        ``(w, d)`` corner arrays: ``(runs, run, lo, hi, owner)``, one entry
        per rank range ``[lo, hi)`` of ``runs[run]`` as scanned, for window
        ``owner``.  Within one run, entries are in window order and a
        window's ranges are disjoint.  A window's rows come back run by
        run, ascending, and in entry order within a run.  Model invocations
        are the plan's to charge."""

    @abstractmethod
    def runs(self) -> Iterator:
        """The index's :class:`~repro.indices.run.KeyedRun` objects, in
        storage order: the one run of ZM / ML-Index / LISA, RSMI's
        leaves."""

    def indexed_points(self) -> np.ndarray:
        """Every indexed point, exactly, in storage order (used by the
        update processor)."""
        chunks = [run.store.points for run in self.runs()]
        return chunks[0] if len(chunks) == 1 else np.vstack(chunks)

    def point_query(self, point: np.ndarray) -> bool:
        """Whether ``point`` (exact coordinates) is indexed."""
        return bool(self.point_queries(np.asarray(point)[None, :])[0])

    def window_query(self, window: Rect) -> np.ndarray:
        """Points inside ``window`` as an (m, d) array (may be approximate)."""
        return self.window_queries([window])[0]

    def knn_query(self, point: np.ndarray, k: int) -> np.ndarray:
        """The ``k`` nearest indexed points to ``point`` (may be approximate)."""
        return self.knn_queries(np.asarray(point)[None, :], k)[0]

    @abstractmethod
    def insert(self, point: np.ndarray) -> None:
        """Built-in insertion procedure (Section IV-B2 / Figure 15).

        Inserts without retraining: the point lands at its sorted key
        position and scan ranges widen conservatively, so predict-and-scan
        stays correct while queries slow down as insertions accumulate —
        the degradation that motivates the rebuild predictor.  Subclasses
        refine this (RSMI adds local models, Figure 1).  A point the
        mapping cannot place raises :class:`InsertRefused` and leaves the
        index as it was.
        """

    @abstractmethod
    def map(self, points: np.ndarray) -> np.ndarray:
        """The base index's map(): coordinates to one-dimensional keys."""

    # ------------------------------------------------------------------
    # Durable state (what :mod:`repro.storage.persist` writes and reads)
    # ------------------------------------------------------------------
    @abstractmethod
    def _structure_state(self) -> dict:
        """The index-specific part of :meth:`state_dict`: stores, models
        and mapping parameters, as a tree of dicts, lists, scalars and
        ndarrays.  Derived state (a :class:`~repro.indices.rmi.ModelSet`'s
        per-member arrays) is left out."""

    @abstractmethod
    def _restore_structure(self, state: dict) -> None:
        """Rebuild what :meth:`_structure_state` described, derived state
        included."""

    def _params(self) -> dict:
        """The constructor parameters, builder aside."""
        return {p: getattr(self, p) for p in ("block_size", *self.state_params)}

    def unbuilt_copy(self) -> "LearnedSpatialIndex":
        """An unbuilt index of this class with this index's builder and
        constructor parameters: what a rebuild builds into."""
        return type(self)(builder=self.builder, **self._params())

    def state_dict(self) -> dict:
        """The built index's durable state as one plain tree."""
        if self.bounds is None:
            raise ValueError("the index must be built before saving")
        return {
            "params": self._params(),
            "bounds": [self.bounds.lo, self.bounds.hi],
            "n_points": self.n_points,
            "native_inserts": self._native_inserts,
            **self._structure_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "LearnedSpatialIndex":
        """An index equal to the one :meth:`state_dict` described,
        queryable immediately (under a default builder)."""
        params = state["params"]
        undeclared = sorted(set(params) - {"block_size", *cls.state_params})
        if undeclared:
            raise ValueError(
                f"{cls.name} takes no constructor parameter {undeclared[0]!r}"
            )
        index = cls(**params)
        index.bounds = Rect.from_arrays(*state["bounds"])
        index.n_points = state["n_points"]
        index._restore_structure(state)
        return index

    # ------------------------------------------------------------------
    def _check_built(self) -> None:
        if self.bounds is None:
            raise RuntimeError(f"{self.name} index is not built yet")

    @staticmethod
    def _prepare_points(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("need a non-empty (n, d) array of points")
        if pts.shape[1] < 2:
            raise ValueError("spatial indices need d >= 2")
        return pts

    def _batch(self, points: np.ndarray, what: str = "points") -> np.ndarray:
        """``points`` as a float64 ``(b, d)`` batch in the index's own
        ``d`` (one ``(d,)`` row is a batch of one); any other shape is a
        ``ValueError`` naming both, not a wrong answer or a deep error."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        d = self.bounds.ndim
        if pts.ndim != 2 or pts.shape[1] != d:
            raise ValueError(
                f"{self.name} indexes {d}-D points: {what} must have shape "
                f"(b, {d}), got {np.shape(points)}"
            )
        return pts

    def point_queries(self, points: np.ndarray) -> np.ndarray:
        """Membership of each ``(b, d)`` row (exact coordinates): one bool
        per row, ``shape (0,)`` for an empty batch.  Executes
        :meth:`point_plan`: each visited run answers its probes in one
        predict-and-scan (:meth:`~repro.indices.run.KeyedRun.point_lookup`)."""
        self._check_built()
        pts = self._batch(points)
        found = np.zeros(len(pts), dtype=bool)
        if len(pts) == 0:
            return found
        with _span("query.point_batch", index=self.name, queries=len(pts)):
            runs, run, keys = self.point_plan(pts)
            self.query_stats.queries += len(pts)
            for r, rows in group_by(run, len(runs)):
                probes = pts[rows]
                found[rows], scanned = runs[r].point_lookup(
                    self.name, keys[rows], probes, atol=self.KEY_ATOL
                )
                self.query_stats.model_invocations += len(probes)
                self.query_stats.points_scanned += scanned
        return found

    def window_queries(self, windows: "list[Rect]") -> list[np.ndarray]:
        """Points inside each window: one ``(m, d)`` array per window (as
        exact as the index's plan).  Executes :meth:`window_plan`: one
        fused scan + rectangle filter per visited run
        (:func:`~repro.perf.batching.batch_window_refine`), each window's
        pieces put back run by run."""
        self._check_built()
        if not windows:
            return []
        w = len(windows)
        with _span("query.window_batch", index=self.name, windows=w):
            win_lo = self._batch([win.lo_array for win in windows], "window corners")
            win_hi = self._batch([win.hi_array for win in windows], "window corners")
            runs, run, lo, hi, owner = self._charged_plan(win_lo, win_hi)
            with _span("query.refine", index=self.name, queries=w):
                if len(runs) == 1:  # the kernel takes a one-run plan as it is
                    store = runs[0].store
                    return batch_window_refine(store, lo, hi, win_lo, win_hi, owner)
                return self._refine(runs, run, lo, hi, owner, win_lo, win_hi)

    def _charged_plan(self, win_lo: np.ndarray, win_hi: np.ndarray):
        """:meth:`window_plan` of a window batch, its range widths recorded
        and its ``queries`` and ``points_scanned`` charged."""
        runs, run, lo, hi, owner = self.window_plan(win_lo, win_hi)
        record_range_widths(self.name, lo, hi, owner)
        self.query_stats.queries += len(win_lo)
        self.query_stats.points_scanned += int(np.maximum(hi - lo, 0).sum())
        return runs, run, lo, hi, owner

    def window_rows(
        self, win_lo: np.ndarray, win_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Points inside each window of a batch given as ``(w, d)`` corner
        arrays: one flat ``(m, d)`` array, window by window, and a row count
        per window — what concatenating :meth:`window_queries`' arrays
        gives, charged alike, without a :class:`Rect` per window.  A one-run
        plan is refined in one :func:`~repro.perf.batching.flat_window_refine`
        call, and a lone window's lone range is one slice of the store.  A
        plan over many runs (RSMI's leaves) takes :meth:`window_queries`'
        per-run path and is concatenated: one flat call per run measured
        0.77–0.99× of it (docs/performance.md)."""
        self._check_built()
        win_lo = self._batch(win_lo, "window corners")
        win_hi = self._batch(win_hi, "window corners")
        w = len(win_lo)
        if w != len(win_hi):
            raise ValueError(f"{w} low corners but {len(win_hi)} high corners")
        if w == 0:
            return np.empty((0, self.bounds.ndim)), np.zeros(0, dtype=np.int64)
        return self._window_rows(win_lo, win_hi)

    def _window_rows(
        self, win_lo: np.ndarray, win_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`window_rows` of corner arrays that are already a checked,
        non-empty ``(w, d)`` float64 pair (the kNN rounds build their own)."""
        w = len(win_lo)
        with _span("query.window_batch", index=self.name, windows=w):
            runs, run, lo, hi, owner = self._charged_plan(win_lo, win_hi)
            with _span("query.refine", index=self.name, queries=w):
                if len(runs) == 1:
                    store = runs[0].store
                    if w == 1 and len(lo) == 1:
                        rows = batch_window_refine(store, lo, hi, win_lo, win_hi)[0]
                        return rows, np.array([len(rows)], dtype=np.int64)
                    return flat_window_refine(store, lo, hi, win_lo, win_hi, owner)
                parts = self._refine(runs, run, lo, hi, owner, win_lo, win_hi)
                return np.concatenate(parts), np.fromiter(map(len, parts), np.int64, w)

    @staticmethod
    def _refine(runs, run, lo, hi, owner, win_lo, win_hi) -> list[np.ndarray]:
        """A plan over many runs: one kernel call per visited run, each
        entry filtered on its own, and each window's non-empty pieces
        stacked run by run."""
        chunks: list[list[np.ndarray]] = [[] for _ in range(len(win_lo))]
        for r, entries in group_by(run, len(runs)):
            here = owner[entries]
            parts = batch_window_refine(
                runs[r].store, lo[entries], hi[entries],
                win_lo.take(here, axis=0), win_hi.take(here, axis=0),
            )
            for i, part in zip(here.tolist(), parts):
                if len(part):
                    chunks[i].append(part)
        d = win_lo.shape[1]
        return [
            np.concatenate(c) if len(c) > 1 else c[0] if c else np.empty((0, d))
            for c in chunks
        ]

    def knn_queries(self, points: np.ndarray, k: int) -> list[np.ndarray]:
        """The ``k`` nearest indexed points to each ``(b, d)`` row, nearest
        first: one ``(m, d)`` array per row, as exact as the index's
        windows.  Checks the batch; :meth:`_knn_rounds` answers it."""
        self._check_built()
        k = check_k(k)
        pts = self._batch(points)
        b = len(pts)
        if b == 0:
            return []
        with _span("query.knn_batch", index=self.name, queries=b, k=k):
            return self._knn_rounds(pts, k)

    def _knn_first_sides(self, pts: np.ndarray, k: int) -> np.ndarray:
        """Side of each query's first kNN window: the cube expected to hold
        k points at the global density ``n / area``.  An index with one
        key-sorted store reads a tighter side off the query's key-order
        neighbours (:class:`~repro.indices.mapsort.MapAndSortIndex`), and
        RSMI off its neighbours in the leaf a lookup of it visits
        (:meth:`_store_seed_sides`)."""
        assert self.bounds is not None
        volume = self.bounds.area()
        density = self.n_points / volume if volume > 0 else self.n_points
        return np.full(
            len(pts), (k / max(density, 1e-12)) ** (1.0 / self.bounds.ndim)
        )

    def _store_seed_sides(
        self, store, pts: np.ndarray, keys: np.ndarray, k: int
    ) -> np.ndarray:
        """First kNN window sides for queries keyed ``keys`` in the
        key-sorted ``store``, from their neighbours in key order.

        The ``m = min(2k, len(store))`` rows around each key's rank are
        indexed points, so with ``len(store) >= k``, or the store holding
        every point, the k-th smallest of their distances bounds the true
        k-th distance from above: the window of that half-side holds the
        whole answer.  The rows are charged to ``points_scanned`` and to
        the store's block reads.
        """
        n = len(store)
        m = min(2 * k, n)
        rank = store.keys.searchsorted(keys)
        lo = np.minimum(np.maximum(rank - k, 0), n - m)
        if len(pts) == 1:
            # A batch of one (every per-query call) is one contiguous
            # scan, as in the batching kernels: no merge machinery.
            near = store.scan(int(lo[0]), int(lo[0]) + m)[0][None]
        else:
            rows = (lo[:, None] + np.arange(m)).ravel()
            near = store.points.take(rows, axis=0).reshape(len(pts), m, -1)
            store.charge_block_reads(*merge_ranges(lo, lo + m))
        self.query_stats.points_scanned += len(pts) * m
        diff = near - pts[:, None, :]
        dist = np.sqrt(np.einsum("bmd,bmd->bm", diff, diff))
        kth = min(k, m) - 1
        dist.partition(kth, axis=1)
        radius = dist[:, kth]
        # A few ulps of slack at the coordinates' scale: rounding, in the
        # distances or in ``q -+ radius``, must not put the neighbour that
        # set the radius outside its own window.
        radius += (np.maximum.reduce(np.abs(pts), axis=1) + radius) * 2.0**-50
        return 2.0 * radius

    def _knn_rounds(self, pts: np.ndarray, k: int) -> list[np.ndarray]:
        """kNN via growing window queries (the paper's learned-index
        strategy), vectorised over a query batch; ML-Index has its own.

        Each query starts from the window :meth:`_knn_first_sides` gives it
        and doubles its side until at least k points fall inside *and* the
        k-th distance is covered by the window's inradius (so no closer
        point can be outside the window), or the window outgrows the side
        at which it covers the data bounds from where the query is, at
        least twice the data extent (fewer than k points indexed: what
        exists).  That test alone decides the answers; the first side only
        decides how many rounds and candidates they cost.
        One loop over *expansion rounds* is shared by the whole batch: each
        round plans the active queries' windows straight from their corner
        arrays, ``centre -+ side / 2``, and refines them in one pass
        (:meth:`_window_rows`: the charged window plan and its refinement,
        with no :class:`Rect` per query and no re-check of the corners it
        built), ranks every candidate
        in a single flattened distance computation + :func:`rank_by_owner`
        (owner-major, distance-minor, ties in scan order whatever else is
        in the batch), retires the covered queries, and
        doubles the remaining sides.  Queries finish independently, so one
        slow region never re-scans the rest.
        """
        bounds = self.bounds
        assert bounds is not None
        # How far each query is from the farthest face of the data bounds,
        # along the worst axis; a non-finite query has no such side, and
        # gets the floor.
        reach = np.maximum.reduce(np.abs(pts[:, None, :] - bounds.corners), axis=(1, 2))
        limit = np.maximum(
            bounds.max_extent * 2.0 + 1e-9,
            2.0 * np.where(np.isfinite(reach), reach, 0.0),
        )
        # Floored: a zero side (the query sits on k coincident points)
        # could never double should an approximate window miss them.
        side = np.maximum(self._knn_first_sides(pts, k), limit * 1e-9)
        results: list[np.ndarray | None] = [None] * len(pts)
        # The active queries, their centres, sides and limits, compacted
        # as queries retire: round one gathers nothing.  Array methods
        # throughout: the ``np.`` spellings of cumsum, repeat and full add
        # a Python wrapper each, ~1 µs a call at a batch of one.
        active, centre = np.arange(len(pts)), pts
        while True:
            half = side / 2.0
            corner = half[:, None]
            flat, counts = self._window_rows(centre - corner, centre + corner)
            a = len(counts)
            starts = counts.cumsum()
            starts -= counts
            # Rows are window-major: each window's centre repeated over its
            # rows (a 2-D ``centre[owner]`` gather costs 30× more).
            diff = flat - centre.repeat(counts, axis=0)
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            order = rank_by_owner(np.arange(a).repeat(counts), dist, a)
            # k-th distance per query: inf with fewer than k candidates.
            full = counts >= k
            kth = np.empty(a)
            kth.fill(np.inf)
            kth[full] = dist.take(order.take(starts[full] + (k - 1)))
            # Retired: covered, or outgrown — spelt so that a NaN side (a
            # non-finite query) counts as outgrown instead of never ending.
            done = (kth <= half) | ~(side <= limit)
            ends = starts + np.minimum(counts, k)
            flat = flat.take(order, axis=0)
            for qi, start, end in zip(
                active[done].tolist(), starts[done].tolist(), ends[done].tolist()
            ):
                results[qi] = flat[start:end]
            left = ~done
            active = active[left]
            if not len(active):
                return results  # type: ignore[return-value]
            centre, side, limit = centre[left], side[left] * 2.0, limit[left]
