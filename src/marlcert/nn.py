"""Dense feedforward nets with manual backprop, Adam, and a binary checkpoint.

Gradients are exact reverse-mode, computed with respect to both the
parameters (training) and the input vector (observation attacks). Everything
is float64; reproducibility outranks speed at this scale.

Checkpoint byte layout (version 1, all integers little-endian):

    offset  size  field
    0       8     magic b"MLPNET01"
    8       4     format version, uint32 (= 1)
    12      1     activation code, uint8 (0 = relu, 1 = tanh)
    13      4     number of layer dims L, uint32
    17      4*L   layer dims, uint32 each
    ...           per layer l = 0..L-2: weight matrix W_l as float64
                  row-major with shape (dims[l+1], dims[l]), then bias b_l
                  as float64 with shape (dims[l+1],)
    end-4   4     CRC-32 (zlib) of every preceding byte, uint32

A reader in any language can reconstruct the network from the header alone;
the trailing checksum catches truncation and bit corruption.
"""

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from marlcert.errors import CheckpointError, NumericalError

_MAGIC = b"MLPNET01"
_VERSION = 1
_ACT_CODES = {"relu": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Mlp:
    """A dense net: linear layers with relu/tanh on hidden, linear output."""

    layer_dims: tuple
    weights: list  # weights[l]: (layer_dims[l+1], layer_dims[l])
    biases: list  # biases[l]: (layer_dims[l+1],)
    activation: str

    def __post_init__(self):
        self.layer_dims = tuple(int(d) for d in self.layer_dims)
        if len(self.layer_dims) < 2 or any(d < 1 for d in self.layer_dims):
            raise ValueError(f"bad layer_dims {self.layer_dims!r}")
        if self.activation not in _ACT_CODES:
            raise ValueError(f"unknown activation {self.activation!r}")
        if len(self.weights) != len(self.layer_dims) - 1 or len(
            self.biases
        ) != len(self.layer_dims) - 1:
            raise ValueError("weights/biases do not match layer_dims")
        self.weights = [np.asarray(W, dtype=np.float64) for W in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_dims[l + 1], self.layer_dims[l])
            if W.shape != want or b.shape != (want[0],):
                raise ValueError(
                    f"layer {l}: weight shape {W.shape} / bias {b.shape} "
                    f"inconsistent with dims {want}"
                )
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l}: non-finite parameters")


@dataclass
class Gradients:
    """Parameter gradients mirroring an Mlp's weight/bias lists."""

    weights: list
    biases: list


@dataclass
class AdamState:
    lr: float
    step: int = 0
    m_weights: list = field(default_factory=list)
    v_weights: list = field(default_factory=list)
    m_biases: list = field(default_factory=list)
    v_biases: list = field(default_factory=list)


def mlp_init(layer_dims, activation, rng):
    """Random He-scaled initialization from a numpy Generator."""
    weights = []
    biases = []
    dims = tuple(int(d) for d in layer_dims)
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(dims, weights, biases, activation)


def _act(net, z):
    if net.activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_grad(net, z):
    if net.activation == "relu":
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def forward_batch(net, X):
    """Forward map for a (batch, in_dim) matrix; returns (batch, out_dim)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.layer_dims[0]:
        raise ValueError(
            f"input shape {X.shape} incompatible with in_dim {net.layer_dims[0]}"
        )
    return forward_rest(net, X @ net.weights[0].T + net.biases[0])


def forward_rest(net, Z):
    """Forward map from the first layer's pre-activations.

    Z is (batch, layer_dims[1]), what the first layer computes before its
    activation; returns (batch, out_dim).  ``forward_batch`` is this applied
    to ``X @ W_0.T + b_0``, so a caller that forms Z another way (smoothing
    adds a projected noise block) shares every later layer with it.
    """
    h = Z
    for W, b in zip(net.weights[1:], net.biases[1:]):
        h = _act(net, h) @ W.T + b
    return h


def forward(net, x):
    """Forward map for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.layer_dims[0],):
        raise ValueError(
            f"input shape {x.shape} incompatible with in_dim {net.layer_dims[0]}"
        )
    return forward_batch(net, x[None, :])[0]


def backward_batch(net, X, G):
    """Reverse-mode gradients for a batch.

    X is (batch, in_dim); G is (batch, out_dim), the loss gradient at the
    outputs. Returns (Gradients summed over the batch, per-sample input
    gradients of shape (batch, in_dim)).
    """
    X = np.asarray(X, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.layer_dims[0]:
        raise ValueError(f"bad input shape {X.shape}")
    if G.shape != (X.shape[0], net.layer_dims[-1]):
        raise ValueError(f"bad output_grad shape {G.shape}")

    # forward pass, caching layer inputs and hidden pre-activations
    inputs = [X]
    pres = []
    h = X
    last = len(net.weights) - 1
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ W.T + b
        if l != last:
            pres.append(z)
            h = _act(net, z)
            inputs.append(h)

    dW = [None] * len(net.weights)
    db = [None] * len(net.biases)
    delta = G
    for l in range(len(net.weights) - 1, -1, -1):
        dW[l] = delta.T @ inputs[l]
        db[l] = delta.sum(axis=0)
        delta = delta @ net.weights[l]
        if l > 0:
            delta = delta * _act_grad(net, pres[l - 1])
    return Gradients(dW, db), delta


def backward(net, x, output_grad):
    """Single-vector gradients: (param Gradients, input gradient vector)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(output_grad, dtype=np.float64)
    if x.shape != (net.layer_dims[0],):
        raise ValueError(f"bad input shape {x.shape}")
    if g.shape != (net.layer_dims[-1],):
        raise ValueError(f"bad output_grad shape {g.shape}")
    grads, gin = backward_batch(net, x[None, :], g[None, :])
    return grads, gin[0]


def adam_init(net, lr):
    state = AdamState(lr=float(lr))
    state.m_weights = [np.zeros_like(W) for W in net.weights]
    state.v_weights = [np.zeros_like(W) for W in net.weights]
    state.m_biases = [np.zeros_like(b) for b in net.biases]
    state.v_biases = [np.zeros_like(b) for b in net.biases]
    return state


def adam_step(net, grads, state):
    """One in-place Adam update; returns (net, state) for chaining."""
    for g in grads.weights + grads.biases:
        if not np.isfinite(g).all():
            raise NumericalError("non-finite gradient passed to adam_step")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    params = net.weights + net.biases
    gs = grads.weights + grads.biases
    ms = state.m_weights + state.m_biases
    vs = state.v_weights + state.v_biases
    for p, g, m, v in zip(params, gs, ms, vs):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    for p in params:
        if not np.isfinite(p).all():
            raise NumericalError("parameters became non-finite in adam_step")
    return net, state


def checkpoint_save(net, path):
    """Write the network in the documented binary format."""
    parts = [_MAGIC, struct.pack("<I", _VERSION)]
    parts.append(struct.pack("<B", _ACT_CODES[net.activation]))
    parts.append(struct.pack("<I", len(net.layer_dims)))
    parts.append(struct.pack(f"<{len(net.layer_dims)}I", *net.layer_dims))
    for W, b in zip(net.weights, net.biases):
        parts.append(np.ascontiguousarray(W, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    payload = b"".join(parts)
    blob = payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(blob)


def checkpoint_load(path):
    """Read a checkpoint, verifying magic, version, shapes, and checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 4 + 1 + 4 + 4:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    if blob[:8] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:8]!r}")
    payload, crc_raw = blob[:-4], blob[-4:]
    if struct.unpack("<I", crc_raw)[0] != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise CheckpointError(f"{path}: checksum mismatch (corrupt file)")
    version = struct.unpack_from("<I", payload, 8)[0]
    if version != _VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} (want {_VERSION})"
        )
    act_code = payload[12]
    if act_code not in _ACT_NAMES:
        raise CheckpointError(f"{path}: unknown activation code {act_code}")
    (n_dims,) = struct.unpack_from("<I", payload, 13)
    if n_dims < 2 or n_dims > 64:
        raise CheckpointError(f"{path}: implausible layer count {n_dims}")
    off = 17
    if off + 4 * n_dims > len(payload):
        raise CheckpointError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{n_dims}I", payload, off)
    off += 4 * n_dims
    expected = sum(
        dims[l + 1] * dims[l] + dims[l + 1] for l in range(n_dims - 1)
    )
    if off + 8 * expected != len(payload):
        raise CheckpointError(
            f"{path}: parameter block size does not match layer_dims header"
        )
    weights, biases = [], []
    for l in range(n_dims - 1):
        n = dims[l + 1] * dims[l]
        W = np.frombuffer(payload, dtype="<f8", count=n, offset=off)
        off += 8 * n
        b = np.frombuffer(payload, dtype="<f8", count=dims[l + 1], offset=off)
        off += 8 * dims[l + 1]
        weights.append(W.reshape(dims[l + 1], dims[l]).copy())
        biases.append(b.copy())
    try:
        return Mlp(dims, weights, biases, _ACT_NAMES[act_code])
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
