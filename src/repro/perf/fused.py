"""Fused training of many same-architecture FFNs in one vectorised loop.

A multi-model index (an RMI with branching ``k``, Flood with ``k`` columns)
trains ``k`` small FFNs, each through its own Python epoch loop — at the
repo's model sizes that cost is interpreter overhead, not arithmetic.  The
fused trainer stacks the ``k`` networks' parameters into ``(k, fan_in,
fan_out)`` tensors, pads the per-model training sets to a common length
with zero-weight masks, and runs **one** epoch loop of batched matmuls for
all models at once.  This is what ``ELSIConfig(parallelism="fused")``
selects: batching needs only wider BLAS calls and fewer interpreter
iterations, so it pays on one core — for many small training sets; the
padding makes it slower than the per-model loop on OG-sized ones
(docs/performance.md).

Semantics match :func:`repro.ml.trainer.train_regressor` per model — same
Adam hyperparameters, same per-model early stopping (a converged model's
parameters freeze while the rest keep training) — up to floating-point
reassociation from padded reductions; the resulting models go through the
usual full-partition error-bound measurement, so predict-and-scan
correctness is preserved exactly however the models were trained.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.ml.ffn import FFN
from repro.ml.trainer import TrainConfig
from repro.obs.metrics import get_registry
from repro.obs.trace import enabled as _obs_enabled

__all__ = [
    "FusedTrainResult",
    "can_fuse",
    "fusion_rejection_reason",
    "train_regressors_fused",
]


@dataclass(frozen=True)
class FusedTrainResult:
    """Outcome of one fused multi-model training run."""

    final_losses: tuple[float, ...]
    epochs_run: tuple[int, ...]
    elapsed_seconds: float


def fusion_rejection_reason(nets: list, config=None) -> "str | None":
    """Why this job set cannot train as one stack (None = it can).

    At least two networks, all FFNs, one shared architecture and one
    shared parameter dtype; with a training ``config``, full-batch
    training too — per-model minibatch shuffles draw from one RNG stream,
    which fusion cannot reproduce.
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


def can_fuse(nets: list[FFN], config: TrainConfig) -> bool:
    """Whether this job set fits the fused path.  A rejection is never
    silent: with tracing on, its reason lands in the
    ``perf.fusion_rejected{reason, context="train"}`` counter."""
    reason = fusion_rejection_reason(nets, config)
    if reason is not None and _obs_enabled():
        get_registry().counter(
            "perf.fusion_rejected", reason=reason, context="train"
        ).inc()
    return reason is None


def train_regressors_fused(
    nets: list[FFN],
    xs: list[np.ndarray],
    ys: list[np.ndarray],
    config: TrainConfig | None = None,
) -> FusedTrainResult:
    """Train ``nets[k]`` to regress ``ys[k]`` on ``xs[k]``, all at once.

    Mutates every network in place, exactly like
    :func:`~repro.ml.trainer.train_regressor` does for one.
    """
    cfg = config or TrainConfig()
    if not (len(nets) == len(xs) == len(ys)):
        raise ValueError(
            f"got {len(nets)} nets, {len(xs)} x sets, {len(ys)} y sets"
        )
    if not nets:
        raise ValueError("need at least one network")
    if not can_fuse(nets, cfg) and len(nets) > 1:
        raise ValueError("job set is not fusable (see can_fuse)")

    k = len(nets)
    sizes = nets[0].layer_sizes
    n_layers = nets[0].n_layers
    lengths = []
    x2s, y2s = [], []
    for x, y in zip(xs, ys):
        x2 = np.asarray(x, dtype=np.float64)
        y2 = np.asarray(y, dtype=np.float64)
        if x2.ndim == 1:
            x2 = x2[:, None]
        if y2.ndim == 1:
            y2 = y2[:, None]
        if x2.shape[0] == 0:
            raise ValueError("cannot train on an empty data set")
        if y2.shape[0] != x2.shape[0]:
            raise ValueError(f"x has {x2.shape[0]} rows but y has {y2.shape[0]}")
        x2s.append(x2)
        y2s.append(y2)
        lengths.append(x2.shape[0])

    n_max = max(lengths)
    n_per = np.asarray(lengths, dtype=np.float64)
    x_pad = np.zeros((k, n_max, sizes[0]))
    y_pad = np.zeros((k, n_max, sizes[-1]))
    row_mask = np.zeros((k, n_max, 1))
    for i, (x2, y2) in enumerate(zip(x2s, y2s)):
        x_pad[i, : lengths[i]] = x2
        y_pad[i, : lengths[i]] = y2
        row_mask[i, : lengths[i]] = 1.0

    # Stacked parameters: weights[l] is (k, fan_in, fan_out), biases[l] (k, fan_out).
    weights = [
        np.stack([net.weights[l] for net in nets]) for l in range(n_layers)
    ]
    biases = [np.stack([net.biases[l] for net in nets]) for l in range(n_layers)]

    # Vectorised Adam state over the stacked parameters, with one step
    # counter per model so frozen (early-stopped) models keep the same
    # bias-correction schedule they would have had serially.
    moments1 = [np.zeros_like(w) for w in weights] + [np.zeros_like(b) for b in biases]
    moments2 = [np.zeros_like(m) for m in moments1]
    steps = np.zeros(k)
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, cfg.lr

    active = np.ones(k, dtype=bool)
    best_loss = np.full(k, np.inf)
    stale = np.zeros(k, dtype=np.int64)
    epochs_run = np.zeros(k, dtype=np.int64)
    final_losses = np.zeros(k)
    last = n_layers - 1
    started = time.perf_counter()

    for _epoch in range(cfg.epochs):
        epochs_run[active] += 1

        # Forward, caching post-activations and ReLU masks.
        activations = [x_pad]
        masks: list[np.ndarray] = []
        h = x_pad
        for l in range(n_layers):
            z = h @ weights[l] + biases[l][:, None, :]
            if l == last:
                h = z
            else:
                mask = z > 0.0
                h = np.where(mask, z, 0.0)
                masks.append(mask)
            activations.append(h)

        diff = (activations[-1] - y_pad) * row_mask
        per_model_loss = np.einsum("kno,kno->k", diff, diff) / (
            n_per * sizes[-1]
        )

        # Backward: gradients for every model in one pass.  Padded rows have
        # diff == 0 exactly, so they contribute nothing.
        grads_w: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
        grads_b: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
        delta = (2.0 / (n_per * sizes[-1]))[:, None, None] * diff
        for l in range(last, -1, -1):
            grads_w[l] = activations[l].transpose(0, 2, 1) @ delta
            grads_b[l] = delta.sum(axis=1)
            if l > 0:
                delta = (delta @ weights[l].transpose(0, 2, 1)) * masks[l - 1]

        # Masked Adam step: only active models advance.
        steps[active] += 1.0
        bias1 = 1.0 - beta1 ** np.maximum(steps, 1.0)
        bias2 = 1.0 - beta2 ** np.maximum(steps, 1.0)
        flat_grads = grads_w + grads_b
        params = weights + biases
        for p, g, m, v in zip(params, flat_grads, moments1, moments2):
            gate = active.reshape((k,) + (1,) * (p.ndim - 1))
            b1 = bias1.reshape(gate.shape)
            b2 = bias2.reshape(gate.shape)
            np.copyto(m, beta1 * m + (1.0 - beta1) * g, where=gate)
            np.copyto(v, beta2 * v + (1.0 - beta2) * (g * g), where=gate)
            update = lr * (m / b1) / (np.sqrt(v / b2) + eps)
            np.copyto(p, p - update, where=gate)

        # Per-model early stopping, mirroring train_regressor.
        final_losses[active] = per_model_loss[active]
        improved = per_model_loss < best_loss - cfg.tolerance
        best_loss = np.where(improved & active, per_model_loss, best_loss)
        stale = np.where(active, np.where(improved, 0, stale + 1), stale)
        active &= stale < cfg.patience
        if not active.any():
            break

    elapsed = time.perf_counter() - started
    for i, net in enumerate(nets):
        net.weights = [weights[l][i].copy() for l in range(n_layers)]
        net.biases = [biases[l][i].copy() for l in range(n_layers)]
    return FusedTrainResult(
        final_losses=tuple(float(v) for v in final_losses),
        epochs_run=tuple(int(v) for v in epochs_run),
        elapsed_seconds=elapsed,
    )
