"""The member models of a multi-model index level, predicted as one.

A batch query path (ZM/ML point batches, Flood column lookups) routes each
key to one leaf model.  :class:`ModelSet` is that set of leaves: it answers
``(member, key)`` pairs with each member's local scan range, through one
:class:`FusedInferenceEngine` when the members stack and one forward pass
per visited member when they do not (:func:`fusion_rejection_reason` names
why; the ``perf.fusion_rejected{reason=...}`` counter records it).  The
engine stacks the leaves' weights and biases into ``(k, fan_in, fan_out)``
tensors and answers the whole batch with one grouped einsum per layer:
every key gathers its own model's parameters by row, so a batch touching
all 16 leaves costs the same number of NumPy calls as one touching one.

Correctness is preserved the way the fused trainer
(:mod:`repro.perf.fused`) preserves it: through the error bounds, not
through bit-equality of the arithmetic.  Grouped einsum reductions may
reassociate relative to the per-model BLAS calls, so the engine re-measures
each member's ``err_l``/``err_u`` under its *own* prediction path over the
member's full key set and takes the elementwise maximum with the per-model
bounds — a scan of the fused range holds every indexed key on either path.

The reduced-precision mode lives here too: with ``dtype="float32"`` a
freshly fitted model's network is cast down and its bounds re-measured
(:meth:`ModelSet.cast_model`), and the engine's stacked parameters and
normalised keys are single precision.  ``REPRO_DTYPE`` overrides the
configured dtype at builder construction (see :func:`resolve_dtype`).
"""

from __future__ import annotations

import os

import numpy as np

from repro.ml.ffn import FFN
from repro.obs.metrics import get_registry
from repro.obs.trace import enabled as _obs_enabled
from repro.obs.trace import span as _span

__all__ = [
    "ENV_DTYPE",
    "FUSION_DTYPES",
    "FusedInferenceEngine",
    "ModelSet",
    "fusion_rejection_reason",
    "record_fusion_rejected",
    "resolve_dtype",
]

ENV_DTYPE = "REPRO_DTYPE"

#: Supported inference dtypes (name -> numpy dtype).
FUSION_DTYPES = {"float64": np.float64, "float32": np.float32}


def resolve_dtype(configured: str = "float64") -> str:
    """The effective inference dtype: ``REPRO_DTYPE`` over the configured one."""
    name = os.environ.get(ENV_DTYPE, "").strip() or configured
    if name not in FUSION_DTYPES:
        raise ValueError(
            f"dtype must be one of {sorted(FUSION_DTYPES)}, got {name!r}"
        )
    return name


def fusion_rejection_reason(nets: list, config=None) -> "str | None":
    """Why this model set cannot share one fused compute path (None = it can).

    Checks the inference-side requirements: at least two networks, all
    FFNs (PLA/PGM segment models have no stackable dense layers), one
    shared architecture, and one shared parameter dtype.  When a training
    ``config`` is given, full-batch training is also required — per-model
    minibatch shuffles draw from one RNG stream, which fusion cannot
    reproduce (the fused *trainer*'s extra constraint).
    """
    if len(nets) < 2:
        return "single_model"
    if config is not None and getattr(config, "batch_size", None) is not None:
        return "minibatch_config"
    if any(not isinstance(net, FFN) for net in nets):
        return "non_ffn"
    first = nets[0].layer_sizes
    if any(net.layer_sizes != first for net in nets):
        return "mixed_shapes"
    first_dtype = nets[0].weights[0].dtype
    if any(
        w.dtype != first_dtype for net in nets for w in net.weights
    ) or any(b.dtype != first_dtype for net in nets for b in net.biases):
        return "mixed_dtype"
    return None


def record_fusion_rejected(reason: str, context: str = "") -> None:
    """Count one fusion rejection in ``perf.fusion_rejected{reason=...}``.

    A single boolean check when observability is disabled, like every
    other hot-path instrumentation site.
    """
    if not _obs_enabled():
        return
    labels = {"reason": reason}
    if context:
        labels["context"] = context
    get_registry().counter("perf.fusion_rejected", **labels).inc()


class FusedInferenceEngine:
    """Stacked-parameter batch prediction over ``k`` structurally identical
    :class:`~repro.indices.base.TrainedModel` leaves.

    Parameters
    ----------
    models:
        The member models, already validated by
        :func:`fusion_rejection_reason` (use :meth:`try_build`).
    dtype:
        ``"float64"`` (default) or ``"float32"`` for the stacked
        parameters and normalised keys.

    The engine replicates :meth:`TrainedModel._positions` semantics per
    row: min-max key normalisation, the FFN forward pass, then
    ``rint(raw * (n_indexed - 1))`` clipped to ``[0, n_indexed - 1]`` —
    all with per-row model parameters gathered from the stacks.
    """

    def __init__(self, models: list, dtype: str = "float64") -> None:
        if len(models) < 2:
            raise ValueError("fused inference needs at least two models")
        if dtype not in FUSION_DTYPES:
            raise ValueError(
                f"dtype must be one of {sorted(FUSION_DTYPES)}, got {dtype!r}"
            )
        self.models = list(models)
        self.dtype_name = dtype
        self.dtype = FUSION_DTYPES[dtype]
        k = len(models)
        nets = [m.net for m in models]
        self.n_layers = nets[0].n_layers
        self.weights = [
            np.stack([net.weights[l] for net in nets]).astype(self.dtype, copy=False)
            for l in range(self.n_layers)
        ]
        self.biases = [
            np.stack([net.biases[l] for net in nets]).astype(self.dtype, copy=False)
            for l in range(self.n_layers)
        ]
        self.key_lo = np.array([m.key_lo for m in models], dtype=self.dtype)
        spans = np.array(
            [m.key_hi - m.key_lo for m in models], dtype=np.float64
        )
        # Degenerate ranges normalise to 0, matching TrainedModel.normalise.
        self.inv_span = np.where(spans > 0.0, 1.0 / np.maximum(spans, 1e-300), 0.0).astype(
            self.dtype
        )
        self.n_indexed = np.array([m.n_indexed for m in models], dtype=np.int64)
        # Start from the members' own bounds; measure_bounds widens them to
        # cover the fused arithmetic as well.
        self.err_l = np.array([m.err_l for m in models], dtype=np.int64)
        self.err_u = np.array([m.err_u for m in models], dtype=np.int64)

    # ------------------------------------------------------------------
    @classmethod
    def try_build(
        cls,
        models: list,
        member_keys: "list[np.ndarray] | None" = None,
        dtype: str = "float64",
        context: str = "",
    ) -> "FusedInferenceEngine | None":
        """Build an engine when the model set is fusable, else ``None``.

        Rejections are recorded via :func:`record_fusion_rejected`.  When
        ``member_keys`` (each member's full sorted key set) is given, the
        fused error bounds are re-measured immediately so the engine is
        query-safe on return.
        """
        reason = fusion_rejection_reason([m.net for m in models])
        if reason is not None:
            record_fusion_rejected(reason, context)
            return None
        engine = cls(models, dtype=dtype)
        if member_keys is not None:
            engine.measure_bounds(member_keys)
        return engine

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return len(self.models)

    @property
    def nbytes(self) -> int:
        """Memory held by the stacked parameters (the dtype knob's target)."""
        return sum(w.nbytes for w in self.weights) + sum(
            b.nbytes for b in self.biases
        )

    # ------------------------------------------------------------------
    def _forward(self, model_idx: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Raw network outputs with per-row gathered parameters."""
        x = (keys - self.key_lo[model_idx]) * self.inv_span[model_idx]
        h = x.astype(self.dtype, copy=False)[:, None]
        last = self.n_layers - 1
        for l in range(self.n_layers):
            w = self.weights[l][model_idx]
            b = self.biases[l][model_idx]
            h = np.einsum("ni,nio->no", h, w) + b
            if l != last:
                np.maximum(h, 0.0, out=h)
        return h[:, 0]

    def predict_positions(
        self, model_idx: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Predicted sorted positions (clipped per model) for a key batch.

        ``model_idx[i]`` selects the member model answering ``keys[i]``.
        One grouped einsum per layer regardless of how many distinct
        models the batch touches — the fused hot path, traced as
        ``perf.fused_predict``.
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.float64))
        model_idx = np.atleast_1d(np.asarray(model_idx, dtype=np.int64))
        if len(keys) != len(model_idx):
            raise ValueError(
                f"got {len(keys)} keys for {len(model_idx)} model indices"
            )
        with _span(
            "perf.fused_predict",
            models=self.k,
            keys=len(keys),
            dtype=self.dtype_name,
        ):
            raw = self._forward(model_idx, keys)
            n = self.n_indexed[model_idx]
            pos = np.rint(raw * (n - 1)).astype(np.int64)
            return np.clip(pos, 0, np.maximum(n - 1, 0))

    def search_ranges(
        self, model_idx: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Half-open *local* scan ranges under the fused error bounds.

        Matches the per-model two-stage clipping exactly: ``lo`` lands in
        ``[0, n - 1]`` and ``hi`` in ``[1, n]``, so callers can map local
        endpoints through member position arrays without further checks.
        """
        pos = self.predict_positions(model_idx, keys)
        # pos is already in [0, n - 1], so each end needs one clamp only.
        lo = np.maximum(pos - self.err_l[model_idx], 0)
        hi = np.minimum(
            pos + self.err_u[model_idx] + 1, np.maximum(self.n_indexed[model_idx], 1)
        )
        return lo, hi

    # ------------------------------------------------------------------
    def measure_bounds(self, member_keys: "list[np.ndarray]") -> None:
        """Re-measure error bounds under the fused prediction path.

        ``member_keys[i]`` is member ``i``'s full sorted key set.  The
        fused bounds are the elementwise maximum of the member's measured
        bounds and the fused-path misprediction extremes, so a fused scan
        range is guaranteed to contain every indexed key regardless of
        which arithmetic path produced the prediction — the same invariant
        :meth:`TrainedModel.measure_error_bounds` establishes per model.
        """
        if len(member_keys) != self.k:
            raise ValueError(
                f"got {len(member_keys)} key sets for {self.k} members"
            )
        keys = np.concatenate(
            [np.asarray(ks, dtype=np.float64) for ks in member_keys]
        )
        lengths = np.array([len(ks) for ks in member_keys], dtype=np.int64)
        if len(keys) == 0:
            return
        model_idx = np.repeat(np.arange(self.k), lengths)
        predicted = self.predict_positions(model_idx, keys)
        # Per-member local ranks: 0..len-1 within each member's partition.
        starts = np.concatenate(([0], np.cumsum(lengths)))[:-1]
        ranks = np.arange(len(keys)) - np.repeat(starts, lengths)
        over = predicted - ranks
        for i in range(self.k):
            mask = model_idx == i
            if not mask.any():
                continue
            self.err_l[i] = max(self.err_l[i], int(over[mask].max()))
            self.err_u[i] = max(self.err_u[i], int((-over[mask]).max()))
        np.maximum(self.err_l, 0, out=self.err_l)
        np.maximum(self.err_u, 0, out=self.err_u)


class ModelSet:
    """The models of one index level (RMI stage 2, Flood's columns),
    answering ``(member_idx, keys) -> (lo, hi)`` in each member's local
    ranks: through one engine pass when the members fuse, one forward pass
    per visited member when they do not.  Either way a range holds every
    key the member indexed, and a member's ``invocations`` counts the keys
    it answered.

    ``member_keys[i]`` is member ``i``'s full sorted key set.  ``cast`` is
    set when the members were just fitted and applies the ``float32`` mode
    to each first; a loaded model keeps the precision its bounds were
    measured in.
    """

    def __init__(
        self,
        members: list,
        member_keys: "list[np.ndarray]",
        dtype: str = "float64",
        context: str = "",
        cast: bool = False,
    ) -> None:
        self.members = list(members)
        if cast:
            for member, keys in zip(self.members, member_keys):
                self.cast_model(member, keys, dtype)
        self._engine = FusedInferenceEngine.try_build(
            self.members, member_keys=member_keys, dtype=dtype, context=context
        )

    @staticmethod
    def cast_model(model, member_keys: np.ndarray, dtype: str) -> None:
        """The ``float32`` mode for one model: cast the network down and
        re-measure the bounds over its full key set, so predict-and-scan
        stays exact.  A model that routes (RMI stage 1, an RSMI node) is
        cast *before* it partitions its keys: query-time routing repeats
        the build-time computation."""
        if dtype == "float32" and isinstance(model.net, FFN):
            model.net.astype(np.float32)
            model.measure_error_bounds(member_keys)

    @property
    def fused(self) -> bool:
        """Whether batches run through the stacked engine."""
        return self._engine is not None

    def search_ranges(
        self, member_idx: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Half-open local scan range per key under its member's bounds:
        ``lo`` in ``[0, n - 1]``, ``hi`` in ``[1, n]``."""
        counts = np.bincount(member_idx, minlength=len(self.members))
        visited = np.flatnonzero(counts)
        if self._engine is not None:
            # One logical invocation per answered key, as on the loop path.
            for i in visited:
                self.members[i].invocations += int(counts[i])
            return self._engine.search_ranges(member_idx, keys)
        lo = np.zeros(len(keys), dtype=np.int64)
        hi = np.zeros(len(keys), dtype=np.int64)
        for i in visited:
            mask = member_idx == i
            lo[mask], hi[mask] = self.members[i].search_ranges(keys[mask])
        return lo, hi
