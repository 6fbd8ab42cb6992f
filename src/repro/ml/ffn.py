"""Feed-forward networks with ReLU hidden layers and a linear output.

This mirrors the model family the paper uses for every learned component:
index models, the method scorer's cost estimators, the rebuild predictor,
and the DQN's Q-function (Sections IV-B and VII-B1).

The implementation is a plain NumPy multilayer perceptron with manual
backpropagation.  It is intentionally small: ELSI's whole point is that the
*training-set size* dominates the training cost ``T(n)``, so a compact,
vectorised implementation preserves the cost behaviour the paper studies.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FFN"]


def _as_2d(x: np.ndarray) -> np.ndarray:
    """Coerce ``x`` to a 2-D float64 array of shape (n_samples, n_features)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D input, got shape {arr.shape}")
    return arr


class FFN:
    """A multilayer perceptron: linear layers, ReLU activations, linear output.

    Parameters
    ----------
    layer_sizes:
        Sizes of all layers including input and output, e.g. ``[1, 16, 1]``
        for the one-dimensional CDF models the base indices learn.
    seed:
        Seed for He-initialised weights, making training reproducible.
    """

    def __init__(self, layer_sizes: list[int], seed: int = 0) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("an FFN needs at least an input and an output layer")
        if any(s <= 0 for s in layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
        self.layer_sizes = list(layer_sizes)
        rng = np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        """Number of weight layers (hidden + output)."""
        return len(self.weights)

    @property
    def n_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on a batch; returns shape (n_samples, n_outputs)."""
        h = _as_2d(x)
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i != last:
                np.maximum(h, 0.0, out=h)
        return h

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass returning a 1-D array when the output layer is size 1."""
        out = self.forward(x)
        if out.shape[1] == 1:
            return out[:, 0]
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.predict(x)

    # ------------------------------------------------------------------
    # Training support
    # ------------------------------------------------------------------
    def parameters(self) -> list[np.ndarray]:
        """Flat list of parameter arrays, weights then biases interleaved."""
        params: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    def loss_and_gradients(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, list[np.ndarray]]:
        """Mean-squared-error loss and gradients for a batch.

        Returns the scalar L2 loss (the paper's training objective) and a
        list of gradient arrays aligned with :meth:`parameters`.
        """
        x2 = _as_2d(x)
        y2 = _as_2d(y)
        n = x2.shape[0]
        if n == 0:
            raise ValueError("cannot compute a loss on an empty batch")

        # Forward pass, caching post-activations and the ReLU masks so the
        # backward pass reuses them instead of recomputing comparisons.
        activations = [x2]
        relu_masks: list[np.ndarray] = []
        h = x2
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            if i == last:
                h = z
            else:
                mask = z > 0.0
                h = np.where(mask, z, 0.0)
                relu_masks.append(mask)
            activations.append(h)

        diff = activations[-1] - y2
        loss = float(np.mean(diff * diff))

        # Backward pass.
        grads: list[np.ndarray | None] = [None] * (2 * self.n_layers)
        delta = (2.0 / n) * diff
        for i in range(last, -1, -1):
            a_prev = activations[i]
            grads[2 * i] = a_prev.T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ self.weights[i].T
                delta = delta * relu_masks[i - 1]
        return loss, [g for g in grads if g is not None]

    # ------------------------------------------------------------------
    # (De)serialisation — the MR pre-trained model pool and index snapshots
    # ------------------------------------------------------------------
    def copy(self) -> "FFN":
        """Deep copy of the network (weights included)."""
        return FFN.from_state(self.state_dict())

    def astype(self, dtype) -> "FFN":
        """Cast every parameter to ``dtype`` in place; returns self.

        The opt-in float32 inference mode casts trained networks down
        after (float64) training.  Predictions change by at most the
        precision drop, so callers must re-measure error bounds afterwards
        to keep predict-and-scan guarantees (see ``ELSIConfig.dtype``).
        """
        self.weights = [w.astype(dtype) for w in self.weights]
        self.biases = [b.astype(dtype) for b in self.biases]
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot of all parameters keyed ``w{i}`` / ``b{i}``."""
        state: dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            state[f"w{i}"] = w.copy()
            state[f"b{i}"] = b.copy()
        return state

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "FFN":
        """Rebuild a network from :meth:`state_dict` output as stored.

        The layer sizes come from the weight shapes and the arrays keep
        their dtype, so a float32-cast network (``ELSIConfig.dtype``)
        predicts under the precision its error bounds were measured in.
        """
        weights = [state[f"w{i}"] for i in range(len(state) // 2)]
        net = cls([len(weights[0])] + [w.shape[1] for w in weights])
        net.weights = weights
        net.biases = [state[f"b{i}"] for i in range(len(weights))]
        return net

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters from :meth:`state_dict` output."""
        for i in range(self.n_layers):
            w = np.asarray(state[f"w{i}"], dtype=np.float64)
            b = np.asarray(state[f"b{i}"], dtype=np.float64)
            if w.shape != self.weights[i].shape or b.shape != self.biases[i].shape:
                raise ValueError(
                    f"layer {i} shape mismatch: got {w.shape}/{b.shape}, "
                    f"expected {self.weights[i].shape}/{self.biases[i].shape}"
                )
            self.weights[i] = w
            self.biases[i] = b
