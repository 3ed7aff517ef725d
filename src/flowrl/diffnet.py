"""Feed-forward velocity network with exact reverse-mode gradients.

The network is the only trainable object in the lab: a small tanh MLP that
maps (state, time, context) features to a velocity vector of the same
dimension as the state. Parameters live in one flat float64 vector so policy
snapshots (current / reference) are plain array copies. A float32 copy of
the vector runs the same network in float32; only forward-only evaluation
does that. Gradients are hand-written reverse mode, exact for the scalar
``sum_n <upstream_n, out_n>``, which is all the training objectives need.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# time enters raw and as (sin 2*pi*tau, cos 2*pi*tau)
TIME_FEATURES = 3

# hidden layers are tanh; checkpoints record it
ACTIVATION = "tanh"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_FORMAT = "flowrl-params"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Architecture:
    """Layer shape of the velocity net.

    ``input_dim`` counts state + time + one-hot context features; ``output_dim``
    equals the task's state dimension, so the context width (>= 1) is implied.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    output_dim: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.output_dim < 1:
            raise ValueError("output_dim must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden layer widths must be >= 1")
        if self.input_dim - self.output_dim - TIME_FEATURES < 1:
            raise ValueError("input_dim too small for state + time + context features")

    @property
    def state_dim(self) -> int:
        return self.output_dim

    @property
    def context_count(self) -> int:
        return self.input_dim - self.output_dim - TIME_FEATURES

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)


def for_task(state_dim: int, context_count: int, hidden_dims=(64, 64)) -> Architecture:
    """Architecture whose feature layout matches a task's state/context sizes."""
    return Architecture(
        input_dim=state_dim + TIME_FEATURES + context_count,
        hidden_dims=tuple(hidden_dims),
        output_dim=state_dim,
    )


def param_count(arch: Architecture) -> int:
    """Total parameter count: sum over layers of (fan_in + 1) * fan_out."""
    dims = arch.layer_dims
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def init_params(arch: Architecture, seed: int) -> np.ndarray:
    """Fresh parameters: Uniform(+-1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    dims = arch.layer_dims
    chunks = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def unpack(arch: Architecture, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of the flat vector as per-layer (weight, bias) pairs, float32
    for a float32 vector and float64 for any other, unchecked: ``init_params``,
    Adam or ``load_checkpoint`` (which checks the count) make every vector."""
    params = np.asarray(params)
    if params.dtype != np.float32:
        params = params.astype(np.float64, copy=False)
    layers = []
    offset = 0
    dims = arch.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = params[offset:offset + fan_in * fan_out].reshape(fan_out, fan_in)
        offset += fan_in * fan_out
        b = params[offset:offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def features(arch: Architecture, x, tau, context) -> np.ndarray:
    """Assemble the (n, input_dim) feature matrix [x, tau, sin, cos, one-hot].

    Accepts a single sample (x of shape (state_dim,), scalar tau, int context)
    or a batch (x of shape (n, state_dim), tau scalar or (n,), context int or
    (n,)). Non-finite states/times and times outside [0, 1] are rejected.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if x.shape[1] != arch.state_dim:
        raise ValueError(f"state dim {x.shape[1]} != {arch.state_dim}")
    tau = np.broadcast_to(np.asarray(tau, dtype=np.float64), (n,))
    context = np.broadcast_to(np.asarray(context, dtype=np.int64), (n,))
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(tau)):
        raise ValueError("non-finite network input")
    if np.any(tau < 0.0) or np.any(tau > 1.0):
        raise ValueError("tau outside [0, 1]")
    check_contexts(arch, context)
    phi = np.empty((n, arch.input_dim))
    write_state_time(arch, phi, x, time_features(tau))
    write_context(arch, phi, context)
    return phi


def check_contexts(arch: Architecture, context) -> None:
    """Reject context indices (an int or an array) outside the net's one-hot block."""
    if np.any(context < 0) or np.any(context >= arch.context_count):
        raise ValueError("context index out of range")


def time_features(tau):
    """The ``TIME_FEATURES`` columns (tau, sin 2 pi tau, cos 2 pi tau) of a
    time or of an array of times."""
    return tau, np.sin(2.0 * np.pi * tau), np.cos(2.0 * np.pi * tau)


def write_state_time(arch: Architecture, phi: np.ndarray, x: np.ndarray, time) -> None:
    """Overwrite the state and time columns of ``phi`` in place, keeping its
    context block: x (n, state_dim) and ``time``, the ``time_features`` of
    one time or of one time per row.

    It writes one column at a time: numpy writes a block of a few strided
    columns more slowly."""
    d = arch.state_dim
    for k in range(d):
        phi[:, k] = x[:, k]
    for k, column in enumerate(time):
        phi[:, d + k] = column


def write_context(arch: Architecture, phi: np.ndarray, context) -> None:
    """Overwrite the one-hot context block of ``phi`` in place: row i gets a
    one in the column of ``context[i]`` (or of one int for every row)."""
    one_hot = phi[:, arch.state_dim + TIME_FEATURES:]
    one_hot.fill(0.0)
    one_hot[np.arange(phi.shape[0]), context] = 1.0


def first_layer_blocks(arch: Architecture, w: np.ndarray):
    """Views of the first layer's weight ``w``: its state, time and context columns."""
    d = arch.state_dim
    return w[:, :d], w[:, d:d + TIME_FEATURES], w[:, d + TIME_FEATURES:]


def layer_buffers(layers, n: int) -> list[np.ndarray]:
    """One (n, fan_out) output array per layer of ``unpack``'s layers, in
    their dtype, for ``mlp`` and ``backward``."""
    return [np.empty((n, w.shape[0]), dtype=w.dtype) for w, _ in layers]


def mlp(layers, phi: np.ndarray, hs: list[np.ndarray]) -> np.ndarray:
    """The network, unchecked, on a prebuilt feature matrix and ``unpack``'s
    layers, each layer's output written into its ``layer_buffers`` array.
    It computes in the layers' dtype, which ``phi`` and ``hs`` share. A weight
    may be ``unpack``'s view or a Fortran-ordered copy: either memory order
    gives the same sums up to BLAS rounding.

    A layer's bias is ``unpack``'s (fan_out,) vector, which ``z += b``
    broadcasts over the rows, or that vector repeated as (n, fan_out) rows,
    which it adds as one contiguous array: the same sums, faster for a
    caller that runs many passes over n rows.

    Returns ``hs[-1]``. The next call on the same buffers overwrites the
    result and the hidden outputs, and ``backward`` spends them, so a caller
    uses them before either.
    """
    h = phi
    for (w, b), z in zip(layers[:-1], hs):
        np.matmul(h, w.T, out=z)
        z += b
        h = np.tanh(z, out=z)
    w, b = layers[-1]
    out = np.matmul(h, w.T, out=hs[-1])
    out += b
    return out


def forward(arch: Architecture, params: np.ndarray, x, tau, context):
    """Velocity prediction through ``features`` and ``mlp``. Batch in, batch
    out; single sample in, vector out."""
    layers = unpack(arch, params)
    phi = features(arch, x, tau, context)
    out = mlp(layers, phi, layer_buffers(layers, phi.shape[0]))
    return out[0] if np.asarray(x).ndim == 1 else out


def backward(layers, phi, hs, upstream, grads, deltas):
    """Exact reverse-mode gradient of ``sum_n <upstream_n, out_n>`` from
    ``unpack``'s layers and the ``mlp`` pass that wrote ``hs`` from ``phi``,
    unchecked.

    Each layer's parameter gradient is written into ``grads``, ``unpack``'s
    (weight, bias) views of the caller's flat gradient vector. Returns the
    gradient w.r.t. the first layer's output (its pre-activation when there
    are hidden layers), one row per sample; it stops there, since only
    ``grad`` needs the input gradient.

    ``deltas`` is a caller-owned ``layer_buffers`` list for the n rows: for
    each hidden layer i, ``delta @ W`` is written into ``deltas[i]``; the
    output layer's entry is never touched. The returned gradient is
    ``deltas[0]`` (``upstream`` for a net without hidden layers), so the next
    call on the same buffers overwrites it.

    The call spends the pass: each hidden output ``hs[i]`` is read for the
    last time, then its tanh derivative 1 - h_i^2 is written over it. A
    caller that differentiates again first runs ``mlp`` again; ``phi`` and
    ``hs[-1]`` are only read.
    """
    # the output layer is linear; hidden layers are tanh
    delta = upstream
    for idx in range(len(layers) - 1, -1, -1):
        gw, gb = grads[idx]
        h = hs[idx - 1] if idx else phi
        np.matmul(delta.T, h, out=gw)
        delta.sum(axis=0, out=gb)
        if idx == 0:
            return delta
        delta = np.matmul(delta, layers[idx][0], out=deltas[idx - 1])
        delta *= np.subtract(1.0, np.multiply(h, h, out=h), out=h)


def grad(arch: Architecture, params: np.ndarray, x, tau, context, upstream):
    """Exact reverse-mode gradient of ``sum_n <upstream_n, forward(params, x_n)>``:
    the flat parameter gradient and the input gradient, one row per sample in
    feature space, whose leading ``state_dim`` columns are the derivative
    w.r.t. the state.
    """
    single = np.asarray(x).ndim == 1
    layers = unpack(arch, params)
    phi = features(arch, x, tau, context)
    hs = layer_buffers(layers, phi.shape[0])
    mlp(layers, phi, hs)
    upstream = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
    expected = (phi.shape[0], arch.output_dim)
    if upstream.shape != expected:
        raise ValueError(f"upstream shape {upstream.shape} != {expected}")
    flat = np.empty(param_count(arch))
    deltas = layer_buffers(layers, phi.shape[0])
    delta = backward(layers, phi, hs, upstream, unpack(arch, flat), deltas) @ layers[0][0]
    return flat, (delta[0] if single else delta)


@dataclass
class AdamState:
    """First/second moment accumulators and step counter, updated in place."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(n_params: int) -> AdamState:
    return AdamState(m=np.zeros(n_params), v=np.zeros(n_params), t=0)


def adam_update(params: np.ndarray, gradient: np.ndarray, state: AdamState, lr: float) -> None:
    """One adaptive-moment descent step with bias correction, in place on
    ``params`` (so ``unpack``'s views of it stay valid) and on ``state``.

    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, then
    params -= lr m_hat / (sqrt(v_hat) + eps), each operation in the order of
    the out-of-place formulas, whose results it matches bit for bit.
    Callers maximizing an objective pass the negated gradient, shaped like
    ``params``: like ``mlp`` and ``backward``, it runs unchecked.
    """
    state.t += 1
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * gradient
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * gradient * gradient
    m_hat = m / (1.0 - ADAM_BETA1 ** state.t)
    params -= lr * m_hat / (np.sqrt(v / (1.0 - ADAM_BETA2 ** state.t)) + ADAM_EPS)


def save_checkpoint(path, arch: Architecture, params: np.ndarray) -> None:
    """Write ``checkpoint_text`` of the parameters to ``path``."""
    Path(path).write_text(checkpoint_text(arch, params))


def checkpoint_text(arch: Architecture, params: np.ndarray) -> str:
    """The parameter checkpoint as JSON text: architecture header plus the
    flat value list, newline-terminated.

    JSON floats use shortest round-trip repr, so doubles survive exactly.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "architecture": {
            "input_dim": arch.input_dim,
            "hidden_dims": list(arch.hidden_dims),
            "output_dim": arch.output_dim,
            "activation": ACTIVATION,
        },
        "values": np.asarray(params, dtype=np.float64).tolist(),
    }
    return json.dumps(payload) + "\n"


def load_checkpoint(path) -> tuple[Architecture, np.ndarray]:
    """Read a ``save_checkpoint`` file; any other content raises ValueError."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a parameter checkpoint: {path}")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}, expected {CHECKPOINT_VERSION}")
    try:
        head = payload["architecture"]
        if head["activation"] != ACTIVATION:
            raise ValueError(f"unsupported activation {head['activation']!r}")
        dims = (head["input_dim"], *head["hidden_dims"], head["output_dim"])
        # int() would also take 13.9, "13" and booleans
        if type(head["hidden_dims"]) is not list or any(type(w) is not int for w in dims):
            raise ValueError("checkpoint layer widths must be JSON integers")
        arch = Architecture(input_dim=dims[0], hidden_dims=dims[1:-1], output_dim=dims[-1])
        # float64 conversion would also take strings and booleans
        if not set(map(type, payload["values"])) <= {int, float}:
            raise ValueError("checkpoint values must be JSON numbers")
        params = np.asarray(payload["values"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc!r}") from exc
    if params.shape != (param_count(arch),):
        raise ValueError("checkpoint value count does not match its architecture header")
    if not np.all(np.isfinite(params)):
        raise ValueError("checkpoint contains non-finite values")
    return arch, params
