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

Batch prediction is fused: after the fit, the structurally identical
stage-2 leaves are stacked into one
:class:`~repro.perf.fused_infer.FusedInferenceEngine`, so a
:meth:`~RMIModel.search_ranges` batch touching many leaves costs one
grouped einsum per layer instead of one FFN call per visited leaf.  The
engine re-measures its own error bounds over every member's partition, so
predict-and-scan correctness holds on the fused path exactly as on the
per-model one; when the leaves cannot be fused (single model, mixed
architectures, PLA nets) the per-model loop keeps running and the reason
lands in the ``perf.fusion_rejected`` counter.

The builder's ``dtype`` (``ELSIConfig.dtype`` / ``REPRO_DTYPE``) selects
the inference precision: with ``float32``, stage-1 is cast *before*
routing — so build-time and query-time routing stay the identical
computation — every member's bounds are re-measured under the reduced
precision, and the fused stacks are single precision.
"""

from __future__ import annotations

import numpy as np

from repro.indices.base import BuildStats, MapFn, ModelBuilder, TrainedModel
from repro.ml.ffn import FFN
from repro.perf.fused_infer import FusedInferenceEngine, record_fusion_rejected

__all__ = ["RMIModel"]


class RMIModel:
    """One- or two-stage learned CDF over a sorted key array.

    Parameters
    ----------
    builder:
        Trains each member model (ELSI's hook).  Its optional ``dtype``
        attribute selects the inference precision (default float64).
    branching:
        Number of stage-2 models; ``1`` collapses to a single model.
    min_partition_size:
        Below this cardinality the index stays single-stage regardless of
        ``branching`` (tiny stage-2 models are pure overhead).
    """

    def __init__(
        self,
        builder: ModelBuilder,
        branching: int = 1,
        min_partition_size: int = 2_000,
    ) -> None:
        if branching < 1:
            raise ValueError(f"branching must be >= 1, got {branching}")
        self.builder = builder
        self.branching = branching
        self.min_partition_size = min_partition_size
        self.stage1: TrainedModel | None = None
        self.stage2: list[TrainedModel] = []
        self._stage2_positions: list[np.ndarray] = []
        self.n = 0
        #: Fused batch-prediction engine over the stage-2 leaves (None
        #: when fusion was rejected or the model is single-stage).
        self._engine: FusedInferenceEngine | None = None
        self._branch_to_midx: np.ndarray | None = None
        self._fused_positions: np.ndarray | None = None
        self._fused_offsets: np.ndarray | None = None
        self._fused_members: list[TrainedModel] = []

    # ------------------------------------------------------------------
    @property
    def dtype(self) -> str:
        """Inference precision, from the builder (default float64)."""
        return getattr(self.builder, "dtype", "float64")

    def _cast_model(self, model: TrainedModel, member_keys: np.ndarray) -> None:
        """Apply the reduced-precision mode to one member model.

        Casts the network parameters down and re-measures the error bounds
        over the member's full partition, so the per-model prediction path
        keeps its predict-and-scan guarantee under the new arithmetic.
        """
        if isinstance(model.net, FFN):
            model.net.astype(np.float32)
            model.measure_error_bounds(member_keys)

    # ------------------------------------------------------------------
    def fit(
        self,
        sorted_keys: np.ndarray,
        sorted_points: np.ndarray,
        stats: BuildStats,
        map_fn: MapFn | None = None,
    ) -> "RMIModel":
        """Train the model hierarchy over globally key-sorted data."""
        self.n = len(sorted_keys)
        if self.n == 0:
            raise ValueError("cannot fit an RMI on an empty key set")
        reduced = self.dtype == "float32"
        self.stage1 = self.builder.build_model(sorted_keys, sorted_points, stats, map_fn)
        if reduced:
            # Cast *before* routing: stage-1 predictions partition the data,
            # and query-time routing must repeat the build-time computation
            # exactly, so the precision drop has to land first.
            self._cast_model(self.stage1, sorted_keys)
        self.stage2 = []
        self._stage2_positions = []
        self._engine = None
        if self.branching == 1 or self.n < self.min_partition_size:
            record_fusion_rejected("single_model", context="rmi")
            return self

        # Stage-2 leaves are independent per-partition jobs: prepare every
        # partition, then build them all in one ``build_models`` call
        # (results stay in branch order).
        routed = self._route(sorted_keys)
        positions_per_branch = [
            np.flatnonzero(routed == branch) for branch in range(self.branching)
        ]
        partitions = [
            (sorted_keys[positions], sorted_points[positions])
            for positions in positions_per_branch
            if len(positions)
        ]
        models = iter(self.builder.build_models(partitions, stats, map_fn))
        for positions in positions_per_branch:
            # An empty branch reuses stage 1 (routing sends no key there).
            self.stage2.append(self.stage1 if len(positions) == 0 else next(models))
            self._stage2_positions.append(positions)
        if reduced:
            for model, positions in zip(self.stage2, self._stage2_positions):
                if model is not self.stage1 and len(positions):
                    self._cast_model(model, sorted_keys[positions])
        self.fuse_inference(sorted_keys)
        return self

    def fuse_inference(self, sorted_keys: np.ndarray) -> "FusedInferenceEngine | None":
        """Stack the stage-2 leaves into a fused batch-prediction engine.

        Called at the end of :meth:`fit` and of :meth:`from_state` (the
        engine itself is derived state and is not saved).
        Returns the engine, or ``None`` with the rejection reason counted
        when the leaves cannot share one compute path.
        """
        self._engine = None
        self._branch_to_midx = None
        self._fused_positions = None
        self._fused_offsets = None
        self._fused_members = []
        if not self.is_two_stage:
            return None
        assert self.stage1 is not None
        members: list[TrainedModel] = []
        member_positions: list[np.ndarray] = []
        branch_to_midx = np.full(self.branching, -1, dtype=np.int64)
        for branch, (model, positions) in enumerate(
            zip(self.stage2, self._stage2_positions)
        ):
            if model is self.stage1 or len(positions) == 0:
                continue  # empty branch: the stage-1 fallback answers it
            branch_to_midx[branch] = len(members)
            members.append(model)
            member_positions.append(np.asarray(positions, dtype=np.int64))
        sorted_keys = np.asarray(sorted_keys, dtype=np.float64)
        engine = FusedInferenceEngine.try_build(
            members,
            member_keys=[sorted_keys[p] for p in member_positions],
            dtype=self.dtype,
            context="rmi",
        )
        if engine is None:
            return None
        self._engine = engine
        self._branch_to_midx = branch_to_midx
        self._fused_positions = np.concatenate(member_positions)
        lengths = np.array([len(p) for p in member_positions], dtype=np.int64)
        self._fused_offsets = np.concatenate(([0], np.cumsum(lengths)))[:-1]
        self._fused_members = members
        return engine

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
    def from_state(
        cls, state: dict, builder: ModelBuilder, sorted_keys: np.ndarray
    ) -> "RMIModel":
        """Rebuild the hierarchy over ``sorted_keys`` and re-fuse it (with
        freshly re-measured fused bounds)."""
        rmi = cls(builder, branching=state["branching"])
        rmi.n = state["n"]
        rmi.stage1 = TrainedModel.from_state(state["stage1"])
        rmi.stage2 = [
            rmi.stage1 if member is None else TrainedModel.from_state(member)
            for member in state["stage2"]
        ]
        rmi._stage2_positions = state["stage2_positions"]
        rmi.fuse_inference(sorted_keys)
        return rmi

    def _route(self, keys: np.ndarray) -> np.ndarray:
        """Stage-2 branch per key, from the stage-1 position prediction."""
        assert self.stage1 is not None
        pos = self.stage1.predict_positions(keys)
        branch = (pos * self.branching) // max(self.n, 1)
        return np.clip(branch, 0, self.branching - 1)

    # ------------------------------------------------------------------
    @property
    def is_two_stage(self) -> bool:
        return bool(self.stage2)

    @property
    def fused(self) -> bool:
        """Whether batch predictions run through the fused engine."""
        return self._engine is not None

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
        """Vectorised :meth:`search_range` over a key batch.

        With the fused engine: one stage-1 pass to route, then one grouped
        forward pass for *all* visited stage-2 leaves at once.  Without it:
        one network forward pass per visited stage-2 model.  Either way the
        returned ranges are guaranteed to contain every indexed key.
        """
        assert self.stage1 is not None
        keys = np.atleast_1d(np.asarray(keys, dtype=np.float64))
        if not self.is_two_stage:
            pos = self.stage1.predict_positions(keys)
            lo = np.maximum(pos - self.stage1.err_l, 0)
            hi = np.minimum(pos + self.stage1.err_u + 1, self.n)
            return lo, hi
        branches = self._route(keys)
        if self._engine is not None:
            return self._search_ranges_fused(keys, branches)
        lo = np.zeros(len(keys), dtype=np.int64)
        hi = np.zeros(len(keys), dtype=np.int64)
        for branch in np.unique(branches):
            mask = branches == branch
            positions = self._stage2_positions[branch]
            model = self.stage2[branch]
            if len(positions) == 0:
                pos = self.stage1.predict_positions(keys[mask])
                lo[mask] = np.maximum(pos - self.stage1.err_l, 0)
                hi[mask] = np.minimum(pos + self.stage1.err_u + 1, self.n)
                continue
            local = model.predict_positions(keys[mask])
            lo_local = np.clip(local - model.err_l, 0, len(positions) - 1)
            hi_local = np.clip(local + model.err_u + 1, 1, len(positions))
            lo[mask] = positions[lo_local]
            hi[mask] = positions[hi_local - 1] + 1
        return lo, hi

    def _search_ranges_fused(
        self, keys: np.ndarray, branches: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The engine-backed half of :meth:`search_ranges`."""
        assert self._engine is not None
        assert self._branch_to_midx is not None
        assert self._fused_positions is not None and self._fused_offsets is not None
        assert self.stage1 is not None
        lo = np.zeros(len(keys), dtype=np.int64)
        hi = np.zeros(len(keys), dtype=np.int64)
        midx = self._branch_to_midx[branches]
        fused = midx >= 0
        if fused.any():
            fm = midx[fused]
            lo_local, hi_local = self._engine.search_ranges(fm, keys[fused])
            base = self._fused_offsets[fm]
            lo[fused] = self._fused_positions[base + lo_local]
            hi[fused] = self._fused_positions[base + hi_local - 1] + 1
            # Keep per-model invocation accounting meaningful on the
            # fused path (one logical invocation per answered key).
            for i, count in enumerate(np.bincount(fm, minlength=len(self._fused_members))):
                if count:
                    self._fused_members[i].invocations += int(count)
        rest = ~fused
        if rest.any():
            pos = self.stage1.predict_positions(keys[rest])
            lo[rest] = np.maximum(pos - self.stage1.err_l, 0)
            hi[rest] = np.minimum(pos + self.stage1.err_u + 1, self.n)
        return lo, hi

    def search_range(self, key: float) -> tuple[int, int]:
        """Global half-open position range guaranteed to contain ``key``.

        Single-stage: the stage-1 model's own range.  Two-stage: route, get
        the stage-2 model's *local* range, then widen to the global
        positions its local endpoints map to (stage-2 point sets need not be
        globally contiguous).
        """
        assert self.stage1 is not None
        if not self.is_two_stage:
            return self.stage1.search_range(key)
        branch = int(self._route(np.array([key]))[0])
        positions = self._stage2_positions[branch]
        model = self.stage2[branch]
        if len(positions) == 0:
            return self.stage1.search_range(key)
        lo_local, hi_local = model.search_range(key)
        lo_local = max(0, min(lo_local, len(positions) - 1))
        hi_local = max(1, min(hi_local, len(positions)))
        return int(positions[lo_local]), int(positions[hi_local - 1]) + 1
