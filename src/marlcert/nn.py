"""Dense feedforward nets with manual backprop, Adam, and a binary checkpoint.

Gradients are exact reverse-mode, computed with respect to both the
parameters (training) and the input vector (observation attacks). Everything
is float64; reproducibility outranks speed at this scale.

A gradient is two passes: ``forward_trace`` runs the batch forward and
keeps every layer's input (``forward_batch`` is its outputs alone), and
``reverse_sweep`` carries the output gradient back through them, to the
parameter gradient (training) or to the input gradient (an attack), not
both.  ``backward_batch`` is the trace and both sweeps in a row.

A net keeps every parameter in one vector, ``Mlp.params``, in the
checkpoint's payload order below, and a parameter gradient and Adam's
moments are vectors in that same layout.  ``Mlp(layer_dims, activation,
params)`` adopts the given float64 array without a copy, after checking
it: a vector of one net's parameters (a slice of a larger vector too), or
an (n, P) block that holds n nets of one shape with a leading agent axis,
weight l (n, out, in), bias l (n, out).  Given such a block,
``forward_trace`` and ``reverse_sweep`` make one product per layer for
all n nets, each net's slice bit for bit what it makes alone.

Checkpoint byte layout (version 1, all integers little-endian):

    offset  size  field
    0       8     magic b"MLPNET01"
    8       4     format version, uint32 (= 1)
    12      1     activation code, uint8 (0 = relu, 1 = tanh)
    13      4     number of layer dims L, uint32
    17      4*L   layer dims, uint32 each
    ...           the parameters, float64, in the order of ``Mlp.params``:
                  per layer l = 0..L-2 the weight matrix W_l row-major with
                  shape (dims[l+1], dims[l]), then the bias b_l with shape
                  (dims[l+1],)
    end-4   4     CRC-32 (zlib) of every preceding byte, uint32

A reader in any language can reconstruct the network from the header alone;
the trailing checksum catches truncation and bit corruption.
"""

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, NumericalError

_MAGIC = b"MLPNET01"
_VERSION = 1
_ACT_CODES = {"relu": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(eq=False)
class Mlp:
    """A dense net: linear layers with relu/tanh on hidden, linear output.

    ``params`` holds every parameter in checkpoint payload order, and is
    the array given, not a copy; ``weights`` and ``biases`` are tuples of
    views into it.  Raises ValueError for bad dims, an unknown activation,
    or parameters of the wrong dtype, shape or with a non-finite value.
    """

    layer_dims: tuple
    activation: str
    params: np.ndarray = field(repr=False)
    weights: tuple = field(init=False, repr=False)  # weights[l]: (out, in)
    biases: tuple = field(init=False, repr=False)  # biases[l]: (out,)

    def __post_init__(self):
        self.layer_dims = tuple(int(d) for d in self.layer_dims)
        if len(self.layer_dims) < 2 or any(d < 1 for d in self.layer_dims):
            raise ValueError(f"bad layer_dims {self.layer_dims!r}")
        if self.activation not in _ACT_CODES:
            raise ValueError(f"unknown activation {self.activation!r}")
        size, params = _n_params(self.layer_dims), self.params
        if not (
            isinstance(params, np.ndarray)
            and params.dtype == np.float64
            and params.ndim in (1, 2)
            and params.shape[-1] == size
        ):
            raise ValueError(
                f"layer_dims {self.layer_dims} take a float64 vector of {size} "
                f"parameters or an (n, {size}) block, not {np.shape(params)}"
            )
        if not np.isfinite(params).all():
            raise ValueError("non-finite parameters")
        self.weights, self.biases = _layers(self.layer_dims, params)


def _n_params(dims):
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _layers(dims, flat):
    """(weights, biases) as tuples of views into ``flat``.

    The one place that knows the parameter layout, the checkpoint's payload
    order: W_0 row-major with shape (dims[1], dims[0]), then b_0, then W_1,
    b_1, and so on.  Leading axes of ``flat`` (a block of nets) lead every view.
    """
    weights, biases = [], []
    k = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = flat[..., k : k + fan_out * fan_in]
        weights.append(W.reshape(*flat.shape[:-1], fan_out, fan_in))
        k += fan_out * fan_in
        biases.append(flat[..., k : k + fan_out])
        k += fan_out
    return tuple(weights), tuple(biases)


@dataclass
class AdamState:
    """Adam's learning rate, moments, step count and two scratch vectors."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: np.ndarray = field(default=None, repr=False)


def mlp_init(layer_dims, activation, rng):
    """Random He-scaled initialization from a numpy Generator: each layer's
    weights drawn in turn, every bias zero."""
    dims = tuple(int(d) for d in layer_dims)
    net = Mlp(dims, activation, np.zeros(_n_params(dims)))
    for W in net.weights:  # (fan_out, fan_in)
        W[...] = rng.normal(0.0, np.sqrt(2.0 / W.shape[1]), size=W.shape)
    return net


def _act(net, z, out=None):
    if net.activation == "relu":
        return np.maximum(z, 0.0, out=out)
    return np.tanh(z, out=out)


def _act_grad(net, h):
    # the derivative read off the activation h = act(z): relu's is 1 where
    # h > 0, that is where z > 0, and tanh's is 1 - tanh(z)^2
    if net.activation == "relu":
        return (h > 0.0).astype(np.float64)
    return 1.0 - h * h


def forward_batch(net, X):
    """Forward map for a (batch, in_dim) matrix, or an (n, batch, in_dim)
    stack for a block of n nets: the outputs of ``forward_trace``."""
    return forward_trace(net, X)[0]


def forward_rest(net, Z):
    """Forward map of one net from the first layer's pre-activations.

    Z is (batch, layer_dims[1]), what the first layer computes before its
    activation; returns (batch, out_dim).  The activations are computed in
    place, so Z is overwritten.  Every later layer rounds as in
    ``forward_trace``, so a caller that forms Z another way (smoothing
    adds a projected noise block in a reused buffer) shares them with it.
    """
    h = Z
    for W, b in zip(net.weights[1:], net.biases[1:]):
        h = _act(net, h, out=h) @ W.T
        h += b
    return h


def forward(net, x):
    """Forward map for a single input vector."""
    return forward_batch(net, np.asarray(x, dtype=np.float64)[None])[0]


def forward_trace(net, X):
    """The forward pass, keeping what the reverse sweep needs.

    Returns (outputs, inputs): the (batch, out_dim) outputs and the list of
    every layer's input, X and then each hidden layer's activations.  The
    outputs are a new array the caller may overwrite.  For a block of n nets
    X is (n, batch, in_dim) and every array gains the leading agent axis.
    """
    X = np.asarray(X, dtype=np.float64)
    lead = net.params.shape[:-1]  # (n,) for a block of n nets
    if X.ndim != len(lead) + 2 or X.shape[:-2] + X.shape[-1:] != lead + net.layer_dims[:1]:
        raise ValueError(
            f"input shape {X.shape} incompatible with in_dim {net.layer_dims[0]}"
        )
    inputs = [X]
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        inputs.append(_act(net, inputs[-1] @ W.swapaxes(-1, -2) + b[..., None, :]))
    W, b = net.weights[-1], net.biases[-1]
    return inputs[-1] @ W.swapaxes(-1, -2) + b[..., None, :], inputs


def reverse_sweep(net, inputs, G, grad=None):
    """Reverse-mode pass over a batch traced by ``forward_trace``.

    G is (batch, out_dim), the loss gradient at the outputs.  When
    ``grad`` is given, an array laid out like ``net.params``, the parameter
    gradient summed over the batch is written into it, and the sweep stops
    after layer 0's, returning None.  Otherwise it returns the per-sample
    input gradients, (batch, in_dim), and forms no parameter gradient.  For
    a block of n nets, G, the result and ``grad`` have the leading agent
    axis.
    """
    delta = G
    if grad is not None:
        dW, db = _layers(net.layer_dims, grad)
    for l in range(len(net.weights) - 1, -1, -1):
        if grad is not None:
            dW[l][...] = delta.swapaxes(-1, -2) @ inputs[l]
            db[l][...] = delta.sum(axis=-2)
            if l == 0:
                return None
        delta = delta @ net.weights[l]
        if l > 0:
            delta = delta * _act_grad(net, inputs[l])
    return delta


def backward_batch(net, X, G):
    """Reverse-mode gradients for a batch.

    X is (batch, in_dim); G is (batch, out_dim), the loss gradient at the
    outputs. Returns (the parameter gradient summed over the batch, one
    vector laid out like ``net.params``; per-sample input gradients of shape
    (batch, in_dim)).
    """
    outputs, inputs = forward_trace(net, X)
    G = np.asarray(G, dtype=np.float64)
    if G.shape != outputs.shape:
        raise ValueError(f"bad output_grad shape {G.shape}")
    grad = np.empty_like(net.params)
    reverse_sweep(net, inputs, G, grad)
    return grad, reverse_sweep(net, inputs, G)


def backward(net, x, output_grad):
    """Single-vector gradients: (parameter gradient, input gradient)."""
    grads, gin = backward_batch(
        net, np.asarray(x, dtype=np.float64)[None], np.asarray(output_grad)[None]
    )
    return grads, gin[0]


def adam_init(params, lr):
    zeros = np.zeros((4,) + params.shape)
    return AdamState(float(lr), zeros[0], zeros[1], scratch=zeros[2:])


# the finiteness check reports a non-finite step; the arithmetic is not warned
@np.errstate(over="ignore", invalid="ignore")
def adam_step(params, grad, state):
    """One in-place Adam update of the vector ``params``.

    Raises NumericalError when the updated parameters are not all finite,
    which a non-finite gradient always makes them.
    """
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    a, b = state.scratch  # every operation below writes into these two
    state.m *= ADAM_BETA1
    state.m += np.multiply(grad, 1.0 - ADAM_BETA1, out=a)
    state.v *= ADAM_BETA2
    state.v += np.multiply(np.multiply(grad, 1.0 - ADAM_BETA2, out=a), grad, out=a)
    # lr * (m / bc1) / (sqrt(v / bc2) + eps), in that order
    np.multiply(np.divide(state.m, bc1, out=a), state.lr, out=a)
    a /= np.add(np.sqrt(np.divide(state.v, bc2, out=b), out=b), ADAM_EPS, out=b)
    params -= a
    if not np.isfinite(params).all():
        raise NumericalError("non-finite parameters after adam_step")


def checkpoint_save(net, path):
    """Write the network in the documented binary format."""
    parts = [_MAGIC, struct.pack("<I", _VERSION)]
    parts.append(struct.pack("<B", _ACT_CODES[net.activation]))
    parts.append(struct.pack("<I", len(net.layer_dims)))
    parts.append(struct.pack(f"<{len(net.layer_dims)}I", *net.layer_dims))
    parts.append(np.ascontiguousarray(net.params, dtype="<f8").tobytes())
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
    expected = _n_params(dims)
    if off + 8 * expected != len(payload):
        raise CheckpointError(
            f"{path}: parameter block size does not match layer_dims header"
        )
    params = np.frombuffer(payload, dtype="<f8", count=expected, offset=off)
    try:  # a native, writable copy of the read-only payload
        return Mlp(dims, _ACT_NAMES[act_code], params.astype(np.float64))
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
