"""A recursive model index (RMI) over one-dimensional mapped keys.

ZM and ML-Index both learn the key→rank CDF with an RMI (Kraska et al.,
SIGMOD 2018): a stage-1 model routes each key to one of ``branching``
stage-2 models, and the chosen stage-2 model predicts the storage address.
Routing uses the stage-1 model's own prediction — the same computation at
build and query time — so lookups of indexed keys always reach the model
that indexed them.

Every member model is trained through a
:class:`~repro.indices.base.ModelBuilder`, which is how ELSI accelerates
multi-model indices one model at a time (Figure 3).

The stage-2 leaves are one :class:`ModelSet`: a
:meth:`~RMIModel.search_ranges` batch touching many leaves runs one forward
pass per visited leaf, under that leaf's own measured bounds.
"""

from __future__ import annotations

import numpy as np

from repro.indices.base import (
    BuildStats,
    MapFn,
    ModelBuilder,
    TrainedModel,
    group_by,
    predicted_positions,
    scan_ranges,
)

__all__ = ["ModelSet", "RMIModel"]


class ModelSet:
    """The stage-2 leaves of an RMI (and its stage 1, for keys routed to
    an empty branch), answering ``(member_idx, keys) -> (lo, hi)`` in each
    member's local ranks.

    Each visited member runs its own forward pass on its keys, in batch
    order, and the normalisation, rounding and bounds are
    :class:`TrainedModel`'s own arithmetic, so a key gets bit for bit the
    position the member's ``err_l``/``err_u`` were measured with: the set
    needs no bounds of its own.  A member's ``invocations`` counts the keys
    it answered.  Keys that all belong to one member (every key of a batch
    of one) are handed over as they are, with no grouping sort
    (:func:`~repro.indices.base.group_by`).  The per-member scalars are
    read once, here: members are final (their bounds measured) when the
    set is made.
    """

    def __init__(self, members: "list[TrainedModel]") -> None:
        self.members = list(members)
        self.n_indexed = np.array([m.n_indexed for m in self.members], dtype=np.int64)
        self.err_l = np.array([m.err_l for m in self.members], dtype=np.int64)
        self.err_u = np.array([m.err_u for m in self.members], dtype=np.int64)

    def search_ranges(
        self, member_idx: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Half-open local scan range per key under its member's bounds:
        ``lo`` in ``[0, n - 1]``, ``hi`` in ``[1, n]``."""
        keys = np.asarray(keys, dtype=np.float64)
        member_idx = np.asarray(member_idx, dtype=np.int64)
        raw = np.empty(len(keys))
        for i, rows in group_by(member_idx, len(self.members)):
            member = self.members[i]
            mine = keys[rows]
            member.invocations += len(mine)
            raw[rows] = member.net.predict(member.normalise(mine)[:, None])
        n = self.n_indexed.take(member_idx)
        return scan_ranges(
            predicted_positions(raw, n),
            n,
            self.err_l.take(member_idx),
            self.err_u.take(member_idx),
        )


#: Below this many keys an RMI stays single-stage whatever its
#: ``branching``: tiny stage-2 models are pure overhead.
MIN_PARTITION_SIZE = 2_000


class RMIModel:
    """One- or two-stage learned CDF over a sorted key array.

    Parameters
    ----------
    builder:
        Trains each member model (ELSI's hook).
    branching:
        Number of stage-2 models; ``1`` (or fewer than
        :data:`MIN_PARTITION_SIZE` keys) collapses to a single model.
    """

    def __init__(self, builder: ModelBuilder, branching: int = 1) -> None:
        if branching < 1:
            raise ValueError(f"branching must be >= 1, got {branching}")
        self.builder = builder
        self.branching = branching
        self.stage1: TrainedModel | None = None
        self.stage2: list[TrainedModel] = []
        self._stage2_positions: list[np.ndarray] = []
        self.n = 0
        #: Derived, never saved: the leaves as one set (None while
        #: single-stage), each branch's member in it and the members'
        #: global positions, concatenated, with offsets.
        self._leaves: ModelSet | None = None
        self._member_of_branch: np.ndarray | None = None
        self._member_positions: np.ndarray | None = None
        self._member_offsets: np.ndarray | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        sorted_keys: np.ndarray,
        sorted_points: np.ndarray,
        stats: BuildStats,
        map_fn: MapFn | None = None,
    ) -> "RMIModel":
        """Train the model hierarchy over globally key-sorted data: stage 1,
        then one stage-2 model per non-empty branch, in branch order."""
        self.n = len(sorted_keys)
        if self.n == 0:
            raise ValueError("cannot fit an RMI on an empty key set")
        self.stage1 = self.builder.build_model(sorted_keys, sorted_points, stats, map_fn)
        self.stage2 = []
        self._stage2_positions = []
        self._leaves = None
        if self.branching == 1 or self.n < MIN_PARTITION_SIZE:
            return self
        routed = self._route(sorted_keys)
        for branch in range(self.branching):
            positions = np.flatnonzero(routed == branch)
            # An empty branch reuses stage 1 (routing sends no key there).
            self.stage2.append(
                self.builder.build_model(
                    sorted_keys[positions], sorted_points[positions], stats, map_fn
                )
                if len(positions)
                else self.stage1
            )
            self._stage2_positions.append(positions)
        self._gather_leaves()
        return self

    def _gather_leaves(self) -> None:
        """Put the non-empty branches' models in one :class:`ModelSet`,
        and stage 1 after them if a branch is empty: stage 1 answers that
        branch's keys over every position, so its positions are the
        identity and every key takes the same gathers."""
        if not self.is_two_stage:
            return
        filled = [b for b, positions in enumerate(self._stage2_positions) if len(positions)]
        members = [self.stage2[b] for b in filled]
        positions = [
            np.asarray(self._stage2_positions[b], dtype=np.int64) for b in filled
        ]
        self._member_of_branch = np.full(self.branching, len(filled), dtype=np.int64)
        self._member_of_branch[filled] = np.arange(len(filled))
        if len(filled) < self.branching:
            members.append(self.stage1)
            positions.append(np.arange(self.n, dtype=np.int64))
        self._member_positions = np.concatenate(positions)
        lengths = [len(p) for p in positions]
        self._member_offsets = np.concatenate(([0], np.cumsum(lengths)))[:-1]
        self._leaves = ModelSet(members)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Durable state: the member models and each branch's positions
        (a branch that reuses stage 1 is stored as ``None``)."""
        return {
            "branching": self.branching,
            "n": self.n,
            "stage1": self.stage1.state_dict(),
            "stage2": [
                None if member is self.stage1 else member.state_dict()
                for member in self.stage2
            ],
            "stage2_positions": self._stage2_positions,
        }

    @classmethod
    def from_state(cls, state: dict, builder: ModelBuilder) -> "RMIModel":
        """Rebuild the hierarchy :meth:`state_dict` described; the members
        answer under the bounds they were stored with."""
        rmi = cls(builder, branching=state["branching"])
        rmi.n = state["n"]
        rmi.stage1 = TrainedModel.from_state(state["stage1"])
        rmi.stage2 = [
            rmi.stage1 if member is None else TrainedModel.from_state(member)
            for member in state["stage2"]
        ]
        rmi._stage2_positions = state["stage2_positions"]
        rmi._gather_leaves()
        return rmi

    def _route(self, keys: np.ndarray) -> np.ndarray:
        """Stage-2 branch per key, from the stage-1 position prediction
        (positions are never negative, so only the top needs a bound)."""
        assert self.stage1 is not None
        pos = self.stage1.predict_positions(keys)
        return np.minimum((pos * self.branching) // max(self.n, 1), self.branching - 1)

    # ------------------------------------------------------------------
    @property
    def is_two_stage(self) -> bool:
        return bool(self.stage2)

    @property
    def models(self) -> list[TrainedModel]:
        """All member models (stage 1 first)."""
        assert self.stage1 is not None
        unique: list[TrainedModel] = [self.stage1]
        for m in self.stage2:
            if m is not self.stage1:
                unique.append(m)
        return unique

    @property
    def invocations(self) -> int:
        return sum(m.invocations for m in self.models)

    @property
    def max_error_width(self) -> int:
        """Worst-case ``err_l + err_u`` across member models (Table I |Error|)."""
        return max(m.error_width for m in self.models)

    def search_ranges(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Global half-open position range per key, guaranteed to contain
        the key if it is indexed.

        Single-stage: the stage-1 model's own range.  Two-stage: one
        stage-1 pass to route, the routed leaf's *local* range from the
        :class:`ModelSet`, widened to the global positions its local
        endpoints map to (a leaf's point set need not be globally
        contiguous).  A key routed to an empty branch gets stage 1's range,
        through the set like any other (:meth:`_gather_leaves`).  Keys in
        ascending order make every gather here and in the set a forward
        walk (docs/performance.md, "Key-ordered point path").
        """
        assert self.stage1 is not None
        keys = np.atleast_1d(np.asarray(keys, dtype=np.float64))
        if not self.is_two_stage:
            return self.stage1.search_ranges(keys)
        assert self._leaves is not None
        member = self._member_of_branch.take(self._route(keys))
        lo_local, hi_local = self._leaves.search_ranges(member, keys)
        base = self._member_offsets.take(member)
        lo = self._member_positions.take(base + lo_local)
        hi = self._member_positions.take(base + hi_local - 1) + 1
        return lo, hi
