"""Feed-forward networks with ReLU hidden layers and a linear output.

This mirrors the model family the paper uses for every learned component:
index models, the method scorer's cost estimators, the rebuild predictor,
and the DQN's Q-function (Sections IV-B and VII-B1).

The implementation is a plain NumPy multilayer perceptron with manual
backpropagation.  It is intentionally small: ELSI's whole point is that the
*training-set size* dominates the training cost ``T(n)``, so a compact,
vectorised implementation preserves the cost behaviour the paper studies.

All parameters live in one contiguous float64 vector, ``flat_params``;
``weights[i]`` and ``biases[i]`` are reshaped views into it, and
:meth:`FFN.loss_and_gradients` fills the matching ``flat_grads`` in place.
An optimiser therefore updates the whole net with one vector operation, and
a training loop that passes a :class:`Workspace` allocates nothing per
epoch.  The views must never be rebound (``net.weights[i] = ...`` would
detach the array from the vector the optimiser updates): assign in place,
``net.weights[i][...] = ...``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FFN", "Workspace"]

#: Rows :meth:`FFN.forward` runs through at a time: a ``[1, 16, 1]`` net's
#: hidden chunk (512 KiB) stays in cache where a 65 536-row batch's does
#: not.  Sizes from 2 048 up tie (docs/performance.md, "Key-ordered point
#: path"); this one is a multiple of 4, and a chunk of a net up to 112
#: wide stays below OpenBLAS's threading threshold (460 800 multiply-adds),
#: so no chunk is split between threads.
_FORWARD_ROWS = 4096


def _as_2d(x: np.ndarray) -> np.ndarray:
    """Coerce ``x`` to a 2-D float64 array of shape (n_samples, n_features)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D input, got shape {arr.shape}")
    return arr


class Workspace:
    """The arrays one forward/backward pass over ``n`` rows writes into.

    Allocated once per fit and reused every epoch: per hidden layer its
    post-ReLU activations, ReLU mask and back-propagated delta; for the
    output layer the prediction (overwritten by the residual) and its square
    (overwritten by the output delta).
    """

    __slots__ = ("hidden", "masks", "deltas", "out", "sq")

    def __init__(self, layer_sizes: list[int], n: int) -> None:
        widths = layer_sizes[1:-1]
        self.hidden = [np.empty((n, w)) for w in widths]
        self.masks = [np.empty((n, w), dtype=bool) for w in widths]
        self.deltas = [np.empty((n, w)) for w in widths]
        self.out = np.empty((n, layer_sizes[-1]))
        self.sq = np.empty_like(self.out)


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
        fans = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self._bind(np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in fans)))
        rng = np.random.default_rng(seed)
        for w, (fan_in, _) in zip(self.weights, fans):
            w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=w.shape)

    def _views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of ``flat``, laid out
        ``w0, b0, w1, b1, ...``."""
        weights: list[np.ndarray] = []
        biases: list[np.ndarray] = []
        start = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(flat[start : start + fan_in * fan_out].reshape(fan_in, fan_out))
            start += fan_in * fan_out
            biases.append(flat[start : start + fan_out])
            start += fan_out
        return weights, biases

    def _bind(self, flat_params: np.ndarray) -> None:
        """Adopt ``flat_params`` and rebuild every view into it and into a
        fresh gradient vector."""
        self.flat_params = flat_params
        self.flat_grads = np.zeros_like(flat_params)
        self.weights, self.biases = self._views(flat_params)
        grad_w, grad_b = self._views(self.flat_grads)
        self._grads = [g for pair in zip(grad_w, grad_b) for g in pair]

    def __getstate__(self) -> dict:
        return {"layer_sizes": self.layer_sizes, "flat_params": self.flat_params}

    def __setstate__(self, state: dict) -> None:
        self.layer_sizes = state["layer_sizes"]
        self._bind(state["flat_params"])

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
        return self.flat_params.size

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on a batch; returns shape (n_samples, n_outputs).

        A batch of more than :data:`_FORWARD_ROWS` rows (plus a remainder
        under 4) goes through in chunks of that many, so its intermediates
        stay in cache; the last chunk takes a remainder of fewer than 4
        rows.  BLAS gives a row the same product whatever the batch as long
        as the row keeps its place within a block of 4 rows, and a lone row
        takes another kernel, so every row gets, bit for bit, what one
        unchunked pass gives it single-threaded (docs/performance.md,
        "Key-ordered point path")."""
        x = _as_2d(x)
        n = len(x)
        if n < _FORWARD_ROWS + 4:
            return self._forward_rows(x)
        out = np.empty((n, self.layer_sizes[-1]))
        stops = [*range(_FORWARD_ROWS, n - 3, _FORWARD_ROWS), n]
        for start, stop in zip([0, *stops[:-1]], stops):
            out[start:stop] = self._forward_rows(x[start:stop])
        return out

    def _forward_rows(self, h: np.ndarray) -> np.ndarray:
        """One pass over the rows of ``h``, the bias added in place."""
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
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
        """Per-layer parameter views, weights then biases interleaved.  An
        optimiser over the whole net takes ``[net.flat_params]`` instead."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def workspace(self, n: int) -> Workspace:
        """Scratch arrays for :meth:`loss_and_gradients` on ``n`` rows."""
        return Workspace(self.layer_sizes, n)

    def loss_and_gradients(
        self, x: np.ndarray, y: np.ndarray, workspace: Workspace | None = None
    ) -> tuple[float, list[np.ndarray]]:
        """Mean-squared-error loss and gradients for a batch.

        Returns the scalar L2 loss (the paper's training objective) and the
        gradient as per-layer views aligned with :meth:`parameters`.  The
        gradient is written into ``flat_grads``, so the views are overwritten
        by the next call.  ``workspace`` (from :meth:`workspace`, sized to
        the batch) is allocated here when not given.
        """
        x2 = _as_2d(x)
        y2 = _as_2d(y)
        n = x2.shape[0]
        if n == 0:
            raise ValueError("cannot compute a loss on an empty batch")
        ws = workspace if workspace is not None else self.workspace(n)

        # Forward pass, keeping the ReLU masks so the backward pass reuses
        # them.  fmax(z, 0) equals where(z > 0, z, 0) for every z the pass
        # can produce (NaN included; z is never -0.0 since no bias is).
        h = x2
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = ws.out if i == last else ws.hidden[i]
            np.matmul(h, w, out=z)
            z += b
            if i != last:
                np.greater(z, 0.0, out=ws.masks[i])
                np.fmax(z, 0.0, out=z)
            h = z

        diff = np.subtract(ws.out, y2, out=ws.out)
        np.multiply(diff, diff, out=ws.sq)
        loss = float(np.add.reduce(ws.sq, axis=None) / ws.sq.size)

        # Backward pass, straight into the gradient vector's views.
        delta = np.multiply(diff, 2.0 / n, out=ws.sq)
        grads = self._grads
        for i in range(last, -1, -1):
            a_prev = x2 if i == 0 else ws.hidden[i - 1]
            np.matmul(a_prev.T, delta, out=grads[2 * i])
            np.add.reduce(delta, axis=0, out=grads[2 * i + 1])
            if i > 0:
                delta = np.matmul(delta, self.weights[i].T, out=ws.deltas[i - 1])
                delta *= ws.masks[i - 1]
        return loss, grads

    # ------------------------------------------------------------------
    # (De)serialisation — the MR pre-trained model pool and index snapshots
    # ------------------------------------------------------------------
    def copy(self) -> "FFN":
        """Deep copy of the network (weights included)."""
        return FFN.from_state(self.state_dict())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot of all parameters keyed ``w{i}`` / ``b{i}``."""
        state: dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            state[f"w{i}"] = w.copy()
            state[f"b{i}"] = b.copy()
        return state

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "FFN":
        """Rebuild a network from :meth:`state_dict` output (the layer sizes
        come from the weight shapes)."""
        weights = [state[f"w{i}"] for i in range(len(state) // 2)]
        net = cls([len(weights[0])] + [w.shape[1] for w in weights])
        net.load_state_dict(state)
        return net

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters from :meth:`state_dict` output, copying them
        into the parameter vector."""
        for i in range(self.n_layers):
            w = np.asarray(state[f"w{i}"], dtype=np.float64)
            b = np.asarray(state[f"b{i}"], dtype=np.float64)
            if w.shape != self.weights[i].shape or b.shape != self.biases[i].shape:
                raise ValueError(
                    f"layer {i} shape mismatch: got {w.shape}/{b.shape}, "
                    f"expected {self.weights[i].shape}/{self.biases[i].shape}"
                )
            self.weights[i][...] = w
            self.biases[i][...] = b
