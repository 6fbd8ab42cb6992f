"""Training loops for the FFNs used across ELSI.

The paper trains with a learning rate of 0.01 for 500 epochs using Adam and
an L2 loss (Section VII-B1).  Those are the defaults in :class:`TrainConfig`.
Training cost is the quantity ELSI reduces — ``T(n)`` in the Section VI cost
model — so the loop reports elapsed time and epochs alongside the loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.ml.adam import Adam
from repro.ml.ffn import FFN

__all__ = ["TrainConfig", "TrainResult", "train_regressor"]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for :func:`train_regressor`.

    ``epochs=500`` and ``lr=0.01`` follow the paper.  Training is full-batch,
    which is what small training sets (the whole point of ELSI) make
    affordable.  ``tolerance`` allows early stopping once the loss
    improvement stalls, bounding wasted epochs on tiny sets.
    """

    epochs: int = 500
    lr: float = 0.01
    tolerance: float = 1e-9
    patience: int = 50

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class TrainResult:
    """Outcome of a training run."""

    final_loss: float
    epochs_run: int
    elapsed_seconds: float
    loss_history: tuple[float, ...]


def train_regressor(
    model: FFN,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig | None = None,
) -> TrainResult:
    """Train ``model`` to regress ``y`` on ``x`` with Adam + L2 loss.

    Mutates ``model`` in place and returns a :class:`TrainResult` with the
    loss trajectory, so callers (e.g. the method scorer's ground-truth
    collection) can record the training cost.
    """
    cfg = config or TrainConfig()
    x2 = np.asarray(x, dtype=np.float64)
    y2 = np.asarray(y, dtype=np.float64)
    if x2.ndim == 1:
        x2 = x2[:, None]
    if y2.ndim == 1:
        y2 = y2[:, None]
    n = x2.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty data set")
    if y2.shape[0] != n:
        raise ValueError(f"x has {n} rows but y has {y2.shape[0]}")

    # One Adam update over the whole parameter vector per epoch, and one
    # workspace for every epoch's forward and backward pass.
    started = time.perf_counter()
    optimizer = Adam([model.flat_params], lr=cfg.lr)
    grads = [model.flat_grads]
    workspace = model.workspace(n)
    history: list[float] = []
    best_loss = np.inf
    stale_epochs = 0
    epochs_run = 0

    for epoch in range(cfg.epochs):
        epochs_run = epoch + 1
        loss, _ = model.loss_and_gradients(x2, y2, workspace)
        optimizer.step(grads)
        history.append(loss)

        if loss < best_loss - cfg.tolerance:
            best_loss = loss
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= cfg.patience:
                break

    elapsed = time.perf_counter() - started
    return TrainResult(
        final_loss=history[-1],
        epochs_run=epochs_run,
        elapsed_seconds=elapsed,
        loss_history=tuple(history),
    )
