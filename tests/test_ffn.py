"""Unit tests for the NumPy feed-forward network."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.adam import Adam
from repro.ml.ffn import _FORWARD_ROWS, FFN


class TestConstruction:
    def test_layer_shapes(self):
        net = FFN([3, 8, 2])
        assert [w.shape for w in net.weights] == [(3, 8), (8, 2)]
        assert [b.shape for b in net.biases] == [(8,), (2,)]

    def test_n_parameters(self):
        net = FFN([1, 16, 1])
        assert net.flat_params.size == 1 * 16 + 16 + 16 * 1 + 1

    def test_rejects_single_layer(self):
        with pytest.raises(ValueError):
            FFN([4])

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            FFN([1, 0, 1])

    def test_seed_reproducibility(self):
        a, b = FFN([2, 4, 1], seed=7), FFN([2, 4, 1], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_different_seeds_differ(self):
        a, b = FFN([2, 4, 1], seed=1), FFN([2, 4, 1], seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])


class TestForward:
    def test_output_shape(self):
        net = FFN([2, 8, 3])
        out = net.forward(np.zeros((5, 2)))
        assert out.shape == (5, 3)

    def test_1d_input_promoted(self):
        net = FFN([1, 4, 1])
        assert net.forward(np.array([0.1, 0.2])).shape == (2, 1)

    def test_predict_squeezes_single_output(self):
        net = FFN([1, 4, 1])
        assert net.predict(np.array([0.1, 0.2])).shape == (2,)

    def test_predict_keeps_multi_output(self):
        net = FFN([1, 4, 3])
        assert net.predict(np.array([0.1])).shape == (1, 3)

    def test_relu_hidden_linear_output(self):
        # With all-positive weights/bias suppressed the output can be
        # negative (linear output layer), unlike a ReLU output.
        net = FFN([1, 4, 1], seed=0)
        net.weights[1][:] = -1.0
        net.biases[1][:] = -1.0
        assert net.predict(np.array([1.0]))[0] < 0

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError):
            FFN([1, 2, 1]).forward(np.zeros((2, 2, 2)))

    def test_callable_alias(self):
        net = FFN([1, 4, 1])
        x = np.array([0.3])
        np.testing.assert_array_equal(net(x), net.predict(x))

    def test_empty_batch(self):
        assert FFN([2, 4, 3]).forward(np.zeros((0, 2))).shape == (0, 3)


def _unchunked_forward(net: FFN, x: np.ndarray) -> np.ndarray:
    """The forward pass as one product per layer over the whole batch."""
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i != net.n_layers - 1:
            np.maximum(h, 0.0, out=h)
    return h


@st.composite
def _chunked_batches(draw):
    """A net with random biases and a batch whose size sits on or near a
    chunk boundary (or anywhere below the last one tried), starting at an
    arbitrary row of a larger array.  OpenBLAS splits a matrix-vector
    product of 460 800 multiply-adds or more between threads, and the
    unchunked pass then depends on the thread count itself: the 64-wide
    net stays below 7 200 rows, one boundary."""
    sizes = draw(st.sampled_from([[1, 16, 1], [2, 4, 1], [1, 64, 64, 1]]))
    chunks = 1 if sizes[1] == 64 else 3
    near = st.builds(
        lambda k, d: max(1, k * _FORWARD_ROWS + d),
        st.integers(0, chunks),
        st.integers(-5, 5),
    )
    n = draw(near | st.integers(1, chunks * _FORWARD_ROWS + 5))
    start = draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = FFN(sizes, seed=int(rng.integers(1 << 30)))
    for b in net.biases:
        b[...] = rng.normal(size=b.shape)
    x = rng.normal(size=(start + n, sizes[0]))[start:]
    return net, x


@settings(max_examples=60, deadline=None)
@given(case=_chunked_batches())
def test_chunked_forward_equals_the_unchunked_pass(case):
    """Byte for byte, across chunk boundaries: the chunks are multiples of
    4 rows and the last takes a remainder under 4, so every row keeps its
    place within BLAS's 4-row blocks and no lone row takes the 1-row
    kernel."""
    net, x = case
    assert net.forward(x).tobytes() == _unchunked_forward(net, x).tobytes()


class TestGradients:
    def test_loss_decreases_under_adam(self):
        rng = np.random.default_rng(0)
        x = rng.random((64, 1))
        y = 2.0 * x + 0.5
        net = FFN([1, 8, 1], seed=0)
        opt = Adam(net.parameters(), lr=0.01)
        first, _ = net.loss_and_gradients(x, y)
        for _ in range(200):
            _, grads = net.loss_and_gradients(x, y)
            opt.step(grads)
        last, _ = net.loss_and_gradients(x, y)
        assert last < first / 10

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        x = rng.random((8, 2))
        y = rng.random((8, 1))
        net = FFN([2, 4, 1], seed=3)
        _, grads = net.loss_and_gradients(x, y)
        eps = 1e-6
        # Check one weight and one bias entry in each layer.
        for layer in range(net.n_layers):
            w = net.weights[layer]
            w[0, 0] += eps
            loss_plus, _ = net.loss_and_gradients(x, y)
            w[0, 0] -= 2 * eps
            loss_minus, _ = net.loss_and_gradients(x, y)
            w[0, 0] += eps
            numeric = (loss_plus - loss_minus) / (2 * eps)
            assert grads[2 * layer][0, 0] == pytest.approx(numeric, abs=1e-4)

    def test_empty_batch_rejected(self):
        net = FFN([1, 2, 1])
        with pytest.raises(ValueError):
            net.loss_and_gradients(np.empty((0, 1)), np.empty((0, 1)))

    def test_loss_is_mse(self):
        net = FFN([1, 2, 1], seed=0)
        x = np.array([[0.5]])
        pred = net.forward(x)[0, 0]
        y = np.array([[pred + 3.0]])
        loss, _ = net.loss_and_gradients(x, y)
        assert loss == pytest.approx(9.0)


class TestStateDict:
    def test_round_trip(self):
        a = FFN([2, 4, 1], seed=0)
        b = FFN([2, 4, 1], seed=99)
        b.load_state_dict(a.state_dict())
        x = np.random.default_rng(0).random((3, 2))
        np.testing.assert_array_equal(a.forward(x), b.forward(x))

    def test_state_dict_is_a_copy(self):
        net = FFN([1, 2, 1], seed=0)
        state = net.state_dict()
        state["w0"][:] = 99.0
        assert not np.any(net.weights[0] == 99.0)

    def test_shape_mismatch_rejected(self):
        a = FFN([2, 4, 1])
        b = FFN([2, 8, 1])
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_copy_is_independent(self):
        a = FFN([1, 4, 1], seed=0)
        b = a.copy()
        b.weights[0][:] = 0.0
        assert not np.array_equal(a.weights[0], b.weights[0])


class TestFlatParameterVector:
    """``weights[i]`` / ``biases[i]`` are views of ``flat_params``: an
    array rebound out of the vector would detach silently, and the
    optimiser would train a vector the net no longer reads."""

    @staticmethod
    def _assert_bound(net: FFN) -> None:
        for p in net.parameters():
            assert np.shares_memory(p, net.flat_params)
        assert net.flat_params.size == sum(p.size for p in net.parameters())
        assert net.flat_grads.shape == net.flat_params.shape

    @pytest.mark.parametrize(
        "make",
        [
            lambda net: net,
            lambda net: net.copy(),
            lambda net: FFN.from_state(net.state_dict()),
            lambda net: pickle.loads(pickle.dumps(net)),
        ],
        ids=["init", "copy", "from_state", "pickle"],
    )
    def test_views_share_the_vector_and_adam_moves_predict(self, make):
        net = make(FFN([2, 8, 8, 1], seed=4))
        self._assert_bound(net)
        x = np.random.default_rng(0).random((16, 2))
        before = net.predict(x)
        opt = Adam([net.flat_params], lr=0.01)
        net.loss_and_gradients(x, np.ones(16))
        opt.step([net.flat_grads])
        assert not np.array_equal(net.predict(x), before)

    def test_load_state_dict_copies_into_the_vector(self):
        net = FFN([1, 4, 1], seed=0)
        net.load_state_dict(FFN([1, 4, 1], seed=9).state_dict())
        self._assert_bound(net)
        np.testing.assert_array_equal(net.weights[0], FFN([1, 4, 1], seed=9).weights[0])

    def test_gradients_are_views_of_the_gradient_vector(self):
        net = FFN([3, 5, 2], seed=0)
        _, grads = net.loss_and_gradients(np.ones((4, 3)), np.zeros((4, 2)))
        assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
        for g in grads:
            assert np.shares_memory(g, net.flat_grads)
        assert np.array_equal(
            np.concatenate([g.ravel() for g in grads]), net.flat_grads
        )
