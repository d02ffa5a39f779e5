"""Tests for the dense network with manual backpropagation."""

import numpy as np
import pytest

import oracles
from marlcert.errors import CheckpointError, NumericalError
from marlcert.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Mlp,
    adam_init,
    adam_step,
    backward,
    backward_batch,
    checkpoint_load,
    checkpoint_save,
    forward,
    forward_batch,
    forward_trace,
    mlp_init,
    reverse_sweep,
)


def _fixed_232_tanh():
    weights = [
        np.array([[0.5, -0.25], [1.0, 0.75], [-0.5, 0.1]]),
        np.array([[1.0, -1.0, 0.5], [0.25, 0.5, -0.75]]),
    ]
    biases = [np.array([0.1, -0.2, 0.0]), np.array([0.05, -0.05])]
    return Mlp((2, 3, 2), "tanh", oracles.mlp_params((2, 3, 2), weights, biases))


def test_zero_net_zero_output():
    net = Mlp((3, 4, 2), "relu", np.zeros(26))
    assert np.array_equal(forward(net, np.array([1.0, -2.0, 3.0])), np.zeros(2))


def test_single_linear_layer_identity():
    net = Mlp((3, 3), "relu", oracles.mlp_params((3, 3), [np.eye(3)], [np.zeros(3)]))
    x = np.array([0.5, -1.5, 2.0])
    assert np.array_equal(forward(net, x), x)


def test_fixed_232_tanh_matches_hand_computation():
    # values frozen from scalar hand arithmetic
    out = forward(_fixed_232_tanh(), np.array([0.3, -0.7]))
    assert out[0] == pytest.approx(0.7440095391493773, rel=1e-14)
    assert out[1] == pytest.approx(0.012104974882785113, rel=1e-12)


def test_forward_batch_matches_forward():
    rng = np.random.default_rng(0)
    net = mlp_init((5, 8, 4), "relu", rng)
    X = rng.normal(size=(6, 5))
    batch = forward_batch(net, X)
    for i in range(6):
        # BLAS may pick different kernels for 6-row and 1-row products, so
        # equality here is to rounding, not bit-exact
        assert np.allclose(batch[i], forward(net, X[i]), rtol=1e-12, atol=1e-14)


def test_forward_determinism():
    rng = np.random.default_rng(21)
    net = mlp_init((5, 8, 4), "tanh", rng)
    X = rng.normal(size=(7, 5))
    assert np.array_equal(forward_batch(net, X), forward_batch(net, X))
    assert np.array_equal(forward(net, X[0]), forward(net, X[0]))


def test_forward_dimension_mismatch():
    net = mlp_init((4, 3), "tanh", np.random.default_rng(1))
    with pytest.raises(ValueError):
        forward(net, np.zeros(5))


def test_backward_zero_output_grad():
    net = mlp_init((3, 5, 2), "tanh", np.random.default_rng(2))
    grads, gin = backward(net, np.array([0.1, 0.2, 0.3]), np.zeros(2))
    assert np.array_equal(gin, np.zeros(3))
    assert grads.shape == net.params.shape and not grads.any()


def test_linear_net_input_gradient_is_wt_g():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(4, 6))
    net = Mlp((6, 4), "relu", oracles.mlp_params((6, 4), [W], [rng.normal(size=4)]))
    g = rng.normal(size=4)
    _, gin = backward(net, rng.normal(size=6), g)
    assert np.allclose(gin, W.T @ g, rtol=1e-13, atol=0)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_gradients_match_finite_differences(activation):
    rng = np.random.default_rng(11)
    for _ in range(4):
        dims = (3, 6, 2)
        net = mlp_init(dims, activation, rng)
        x = rng.normal(size=3)
        if activation == "relu":
            # keep probes away from the kink so central differences are valid
            while np.min(np.abs(net.weights[0] @ x + net.biases[0])) < 1e-2:
                x = rng.normal(size=3)
        gout = rng.normal(size=2)
        probe = Mlp(net.layer_dims, net.activation, net.params.copy())

        def loss_at_params(flat):
            probe.params[:] = flat
            return float(gout @ forward(probe, x))

        def loss_at_input(xs):
            return float(gout @ forward(net, np.asarray(xs)))

        grads, gin = backward(net, x, gout)
        analytic = np.concatenate([grads, gin])
        numeric = np.array(
            oracles.central_difference(loss_at_params, list(net.params))
            + oracles.central_difference(loss_at_input, list(x))
        )
        denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
        assert float(np.max(np.abs(analytic - numeric) / denom)) <= 1e-4


def test_backward_batch_sums_single_sample_grads():
    rng = np.random.default_rng(5)
    net = mlp_init((4, 7, 3), "relu", rng)
    X = rng.normal(size=(5, 4))
    G = rng.normal(size=(5, 3))
    batch_grads, batch_gin = backward_batch(net, X, G)
    acc = np.zeros_like(net.params)
    for i in range(5):
        g, gi = backward(net, X[i], G[i])
        acc += g
        assert np.allclose(batch_gin[i], gi, rtol=1e-12, atol=1e-14)
    assert np.allclose(acc, batch_grads, rtol=1e-12, atol=1e-14)


def test_weights_and_biases_are_views_of_params():
    # payload order for dims (3, 4, 2): W_0 (12 values), b_0 (4), W_1 (8), b_1 (2)
    net = mlp_init((3, 4, 2), "relu", np.random.default_rng(6))
    net.weights[1][0, 0] = 5.0
    net.biases[0][...] = -1.0
    assert net.params.size == 26
    assert net.params[16] == 5.0 and (net.params[12:16] == -1.0).all()
    again = Mlp(net.layer_dims, net.activation, net.params)
    assert again.params is net.params  # the constructor adopts, no copy
    assert np.array_equal(again.params, oracles.mlp_params((3, 4, 2), net.weights, net.biases))
    with pytest.raises(TypeError):
        net.weights[0] = np.zeros((4, 3))  # a tuple: no element can be swapped out


def test_view_of_a_slice_shares_the_vector():
    rng = np.random.default_rng(10)
    nets = [mlp_init((3, 4, 2), "relu", rng), mlp_init((2, 5), "tanh", rng)]
    x = rng.normal(size=(2, 3))
    flat = np.concatenate([net.params for net in nets])
    views = [
        Mlp(nets[0].layer_dims, "relu", flat[:26]),
        Mlp(nets[1].layer_dims, "tanh", flat[26:]),
    ]
    assert views[1].params.base is flat
    assert np.array_equal(forward_batch(views[0], x), forward_batch(nets[0], x))
    flat *= 2.0
    assert np.array_equal(views[1].params, 2.0 * nets[1].params)
    assert np.array_equal(views[0].weights[0].ravel(), 2.0 * nets[0].params[:12])


@pytest.mark.parametrize("rows", [1, 32])  # one action choice, one TD batch
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(64,), (64, 32)])
def test_stacked_pass_matches_per_net_passes(rows, activation, hidden):
    # the agent nets of a policy: same shape, back to back in one vector
    rng = np.random.default_rng(17)
    dims = (47,) + hidden + (5,)
    size = mlp_init(dims, activation, rng).params.size
    flat = rng.normal(size=3 * size) * 0.3  # nonzero biases too
    view = Mlp(dims, activation, flat.reshape(3, -1))
    nets = [Mlp(dims, activation, row) for row in view.params]
    assert all(np.shares_memory(W, flat) for W in view.weights + view.biases)
    X = rng.normal(size=(rows, 3, 47))  # laid out as the replay's (b, n, obs)
    G = rng.normal(size=(3, rows, 5))
    outputs, inputs = forward_trace(view, X.swapaxes(0, 1))
    assert np.array_equal(forward_batch(view, X.swapaxes(0, 1)), outputs)
    grad = np.full_like(flat, np.nan)
    grad_in = reverse_sweep(view, inputs, G, grad.reshape(3, -1))
    assert np.array_equal(reverse_sweep(view, inputs, G), grad_in)
    single = forward_batch(view, X[0][:, None, :])  # as agent_values calls it
    for i, net in enumerate(nets):
        assert np.array_equal(outputs[i], forward_batch(net, X[:, i, :]))
        want_grad, want_in = backward_batch(net, X[:, i, :], G[i])
        assert np.array_equal(grad.reshape(3, -1)[i], want_grad)
        assert np.array_equal(grad_in[i], want_in)
        assert np.array_equal(single[i, 0], forward(net, X[0, i]))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        net = mlp_init((2, 3, 1), "tanh", np.random.default_rng(7))
        before = net.params.copy()
        state = adam_init(net.params, lr=0.05)
        grads, _ = backward(net, np.zeros(2), np.zeros(1))
        adam_step(net.params, grads, state)
        assert np.array_equal(net.params, before)

    def test_descends_quadratic(self):
        # one-parameter net, loss f(w) = w^2 starting at w = 1; Adam
        # oscillates near the optimum, so the assertion is on the trend
        net = Mlp((1, 1), "relu", np.array([1.0, 0.0]))
        state = adam_init(net.params, lr=0.1)
        losses = []
        for _ in range(200):
            w = net.weights[0][0, 0]
            losses.append(w * w)
            grads, _ = backward(net, np.array([1.0]), np.array([2.0 * w]))
            adam_step(net.params, grads, state)
        assert losses[1] < losses[0]
        assert np.mean(losses[50:60]) < np.mean(losses[10:20])
        assert np.mean(losses[-10:]) < np.mean(losses[50:60])
        assert losses[-1] < 1e-6

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nan_gradient_rejected(self, value):
        net = mlp_init((2, 2), "relu", np.random.default_rng(8))
        state = adam_init(net.params, lr=0.01)
        grads, _ = backward(net, np.ones(2), np.ones(2))
        grads[0] = value
        with pytest.raises(NumericalError):
            adam_step(net.params, grads, state)

    def test_state_counts_steps(self):
        net = mlp_init((2, 2), "relu", np.random.default_rng(9))
        state = adam_init(net.params, lr=0.01)
        assert isinstance(state, AdamState) and state.step == 0
        grads, _ = backward(net, np.ones(2), np.ones(2))
        adam_step(net.params, grads, state)
        assert state.step == 1

    def test_packed_vector_matches_per_array_reference(self):
        # two nets in one vector against the per-array loop, bit for bit
        rng = np.random.default_rng(16)
        nets = [mlp_init((4, 6, 3), "relu", rng), mlp_init((5, 2), "tanh", rng)]
        arrays = [a for n in nets for a in n.weights + n.biases]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in arrays]
        params = np.concatenate([n.params for n in nets])
        grad = np.zeros_like(params)
        grad_nets = [
            Mlp(nets[0].layer_dims, "relu", grad[:51]),
            Mlp(nets[1].layer_dims, "tanh", grad[51:]),
        ]
        grad_arrays = [g for n in grad_nets for g in n.weights + n.biases]
        state = adam_init(params, lr=3e-3)
        for step in range(1, 1201):
            # gradients spanning many magnitudes, some exactly zero
            grad[:] = rng.normal(size=grad.size) * 10.0 ** rng.integers(-8, 4, grad.size)
            grad[rng.random(grad.size) < 0.1] = 0.0
            adam_step(params, grad, state)
            _per_array_adam(arrays, grad_arrays, moments, 3e-3, step)
            assert np.array_equal(params, np.concatenate([n.params for n in nets]))
        assert state.step == 1200


def _per_array_adam(arrays, grads, moments, lr, step):
    """Adam as one loop over each weight and bias array in turn: the
    reference for the one-vector ``adam_step``."""
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    for p, g, (m, v) in zip(arrays, grads, moments):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        net = mlp_init((5, 9, 3), "tanh", rng)
        path = tmp_path / "net.mlp"
        checkpoint_save(net, path)
        loaded = checkpoint_load(path)
        assert loaded.layer_dims == net.layer_dims
        assert loaded.activation == net.activation
        assert np.array_equal(loaded.params, net.params)
        probe = rng.normal(size=5)
        assert np.array_equal(forward(loaded, probe), forward(net, probe))

    def test_truncated_file_rejected(self, tmp_path):
        net = mlp_init((4, 4), "relu", np.random.default_rng(13))
        path = tmp_path / "net.mlp"
        checkpoint_save(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "net.mlp"
        path.write_bytes(b"NOTANET!" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_version_mismatch_rejected(self, tmp_path):
        net = mlp_init((3, 2), "relu", np.random.default_rng(14))
        path = tmp_path / "net.mlp"
        checkpoint_save(net, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_flipped_payload_byte_rejected(self, tmp_path):
        net = mlp_init((3, 2), "relu", np.random.default_rng(15))
        path = tmp_path / "net.mlp"
        checkpoint_save(net, path)
        raw = bytearray(path.read_bytes())
        raw[-12] ^= 0xFF  # corrupt a parameter byte under the checksum
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            checkpoint_load(path)


def test_init_determinism():
    a = mlp_init((4, 6, 2), "relu", np.random.default_rng(42))
    b = mlp_init((4, 6, 2), "relu", np.random.default_rng(42))
    assert np.array_equal(a.params, b.params)


def test_mlp_rejects_inconsistent_shapes():
    # lengths, values and activations: test_mlp_rejects_bad_params
    Mlp((2, 3), "relu", np.zeros(9))
    with pytest.raises(ValueError):
        Mlp((2, 0), "relu", np.zeros(0))
    with pytest.raises(ValueError):
        Mlp((2, 3), "relu", np.zeros((2, 2, 9)))
    with pytest.raises(ValueError):
        Mlp((2, 3), "relu", np.zeros(9, dtype=np.float32))
    with pytest.raises(ValueError):
        oracles.mlp_params((2, 3), [np.zeros((2, 3))], [np.zeros(3)])  # transposed


@pytest.mark.parametrize("fault", [None, "long", np.nan, np.inf, -np.inf, "sigmoid"])
@pytest.mark.parametrize("nets", [1, 3])  # a slice of a larger vector, an (n, P) block
def test_mlp_rejects_bad_params(nets, fault):
    # dims (3, 4, 2) take 26 parameters a net; the last net's last value is the bad one
    flat = np.random.default_rng(18).normal(size=100)
    size = 27 if fault == "long" else 26
    params = flat[4 : 4 + nets * size]
    if nets > 1:
        params = params.reshape(nets, size)
    if isinstance(fault, float):
        params[(-1,) * params.ndim] = fault
    activation = fault if fault == "sigmoid" else "relu"
    if fault is None:
        net = Mlp((3, 4, 2), activation, params)
        assert net.params is params and np.shares_memory(net.weights[1], flat)
        return
    with pytest.raises(ValueError):
        Mlp((3, 4, 2), activation, params)
