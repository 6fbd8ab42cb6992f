"""The flat-vector trainer against the textbook step it replaced.

The oracle below is the list-of-arrays backprop (a fresh temporary per
operation) and the per-array Adam loop, written out plainly.  The FFN's
flat parameter vector, its in-place gradient and the one vector-wide Adam
update must reproduce it operation for operation: every loss and every
trained parameter byte-equal, so that trained index models, their bounds
and every answer are unchanged.
"""

from __future__ import annotations

import time
import zipfile

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.data import load_dataset
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.indices import base as indices_base
from repro.ml.dqn import DQNAgent, Transition
from repro.ml.ffn import FFN
from repro.ml.trainer import TrainConfig, TrainResult, train_regressor
from repro.storage.persist import save_index


# ----------------------------------------------------------------------
# The oracle: the textbook step, one list entry per weight / bias array.
# ----------------------------------------------------------------------
def oracle_loss_and_gradients(net: FFN, x: np.ndarray, y: np.ndarray):
    x2 = np.asarray(x, dtype=np.float64)
    y2 = np.asarray(y, dtype=np.float64)
    x2 = x2[:, None] if x2.ndim == 1 else x2
    y2 = y2[:, None] if y2.ndim == 1 else y2
    n = x2.shape[0]
    activations = [x2]
    relu_masks = []
    h = x2
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
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
    grads = [None] * (2 * net.n_layers)
    delta = (2.0 / n) * diff
    for i in range(last, -1, -1):
        grads[2 * i] = activations[i].T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i].T
            delta = delta * relu_masks[i - 1]
    return loss, grads


class OracleAdam:
    def __init__(self, params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = (
            params, lr, beta1, beta2, eps
        )
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        self._t = 0

    def step(self, grads):
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def oracle_train_regressor(model, x, y, config=None) -> TrainResult:
    cfg = config or TrainConfig()
    x2 = np.asarray(x, dtype=np.float64)
    y2 = np.asarray(y, dtype=np.float64)
    x2 = x2[:, None] if x2.ndim == 1 else x2
    y2 = y2[:, None] if y2.ndim == 1 else y2
    optimizer = OracleAdam(model.parameters(), lr=cfg.lr)
    history = []
    best_loss, stale_epochs, epochs_run = np.inf, 0, 0
    started = time.perf_counter()
    for epoch in range(cfg.epochs):
        epochs_run = epoch + 1
        loss, grads = oracle_loss_and_gradients(model, x2, y2)
        optimizer.step(grads)
        history.append(loss)
        if loss < best_loss - cfg.tolerance:
            best_loss, stale_epochs = loss, 0
        else:
            stale_epochs += 1
            if stale_epochs >= cfg.patience:
                break
    return TrainResult(
        final_loss=history[-1],
        epochs_run=epochs_run,
        elapsed_seconds=time.perf_counter() - started,
        loss_history=tuple(history),
    )


def assert_nets_equal(a: FFN, b: FFN) -> None:
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.tobytes() == pb.tobytes()


def _fit_both(sizes, x, y, config):
    net, ref = FFN(sizes, seed=3), FFN(sizes, seed=3)
    got = train_regressor(net, x, y, config)
    want = oracle_train_regressor(ref, x, y, config)
    return net, ref, got, want


# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "sizes,n",
    [([1, 16, 1], n) for n in (1, 2, 9, 201, 3001)]
    + [([2, 4, 1], 150), ([1, 64, 64, 1], 300)],
)
def test_training_is_byte_identical_to_the_textbook_step(sizes, n):
    rng = np.random.default_rng(n)
    x = rng.random((n, sizes[0]))
    x = x[:, 0] if sizes[0] == 1 else x
    y = np.sort(rng.random(n))
    net, ref, got, want = _fit_both(sizes, x, y, TrainConfig(epochs=300))
    assert np.array(got.loss_history).tobytes() == np.array(want.loss_history).tobytes()
    assert got.epochs_run == want.epochs_run
    assert_nets_equal(net, ref)


def test_early_stopping_fires_at_the_same_epoch():
    x = np.linspace(0.0, 1.0, 40)
    config = TrainConfig(epochs=2_000, patience=5, tolerance=1e-4)
    net, ref, got, want = _fit_both([1, 16, 1], x, x, config)
    assert got.epochs_run < config.epochs
    assert got.loss_history == want.loss_history
    assert got.epochs_run == want.epochs_run
    assert_nets_equal(net, ref)


def test_dqn_steps_are_byte_identical():
    agent, ref = DQNAgent(8, 4, seed=1), DQNAgent(8, 4, seed=1)
    optimizer = OracleAdam(ref.q_network.parameters(), lr=ref.config.lr)
    rng = np.random.default_rng(2)
    for _ in range(40):
        t = Transition(
            (rng.random(8) > 0.5).astype(float),
            int(rng.integers(4)),
            float(rng.random()),
            (rng.random(8) > 0.5).astype(float),
        )
        agent.replay.push(t)
        ref.replay.push(t)
    for _ in range(20):
        got = agent._train_batch()
        # The agent's step with the oracle's gradient and update.
        batch = ref.replay.sample_recent(ref.config.batch_size)
        states = np.stack([t.state for t in batch])
        next_states = np.stack([t.next_state for t in batch])
        actions = np.array([t.action for t in batch])
        rewards = np.array([t.reward for t in batch])
        targets = ref.q_network.forward(states).copy()
        td = rewards + ref.config.gamma * ref.target_network.forward(next_states).max(axis=1)
        targets[np.arange(len(batch)), actions] = td
        want, grads = oracle_loss_and_gradients(ref.q_network, states, targets)
        optimizer.step(grads)
        assert got == want
    assert_nets_equal(agent.q_network, ref.q_network)


def _member_bytes(path) -> dict[str, bytes]:
    """Every archive member's bytes (the zip's own timestamps excluded)."""
    with zipfile.ZipFile(path) as zf:
        return {info.filename: zf.read(info) for info in zf.infolist()}


@pytest.mark.parametrize("cls", [ZMIndex, MLIndex, RSMIIndex, LISAIndex])
def test_index_snapshots_are_byte_identical(cls, monkeypatch, tmp_path):
    points = load_dataset("OSM1", 3_000)
    config = ELSIConfig(train_epochs=60)
    index = cls(builder=ELSIModelBuilder(config, method="SP")).build(points)
    save_index(index, tmp_path / "flat.npz")
    monkeypatch.setattr(indices_base, "train_regressor", oracle_train_regressor)
    oracle = cls(builder=ELSIModelBuilder(config, method="SP")).build(points)
    save_index(oracle, tmp_path / "oracle.npz")
    assert _member_bytes(tmp_path / "flat.npz") == _member_bytes(tmp_path / "oracle.npz")
