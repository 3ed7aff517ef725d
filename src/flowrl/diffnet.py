"""Feed-forward velocity network with exact reverse-mode gradients.

The network is the only trainable object in the lab: a small tanh MLP that
maps (state, time, context) features to a velocity vector of the same
dimension as the state. Parameters live in one flat float64 vector so policy
snapshots (current / reference) are plain array copies. Gradients are
hand-written reverse mode, exact for the scalar ``sum_n <upstream_n, out_n>``,
which is all the training objectives need.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# time enters raw and as (sin 2*pi*tau, cos 2*pi*tau)
TIME_FEATURES = 3

ACTIVATIONS = ("tanh",)

CHECKPOINT_FORMAT = "flowrl-params"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Architecture:
    """Layer shape of the velocity net.

    ``input_dim`` counts state + time + one-hot context features; ``output_dim``
    equals the task's state dimension, so the context width is implied.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    output_dim: int = 2
    activation: str = "tanh"

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden layer widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation {self.activation!r}")
        if self.input_dim - self.output_dim - TIME_FEATURES < 0:
            raise ValueError("input_dim too small for state + time features")

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
    """Views of the flat vector as per-layer (weight, bias) pairs."""
    params = np.asarray(params, dtype=np.float64)
    expected = param_count(arch)
    if params.shape != (expected,):
        raise ValueError(f"expected {expected} parameters, got shape {params.shape}")
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
    if arch.context_count > 0:
        if np.any(context < 0) or np.any(context >= arch.context_count):
            raise ValueError("context index out of range")
    return feature_matrix(arch, x, tau, context)


def feature_matrix(arch: Architecture, x: np.ndarray, tau, context) -> np.ndarray:
    """``features`` without its checks, for validated x (n, state_dim), tau and context."""
    n = x.shape[0]
    phi = np.zeros((n, arch.input_dim))
    write_state_time(arch, phi, x, tau)
    if arch.context_count > 0:
        phi[np.arange(n), arch.state_dim + TIME_FEATURES + context] = 1.0
    return phi


def write_state_time(arch: Architecture, phi: np.ndarray, x: np.ndarray, tau) -> None:
    """Overwrite the state and time columns of ``phi`` in place, keeping its context block."""
    d = arch.state_dim
    phi[:, :d] = x
    phi[:, d] = tau
    phi[:, d + 1] = np.sin(2.0 * np.pi * tau)
    phi[:, d + 2] = np.cos(2.0 * np.pi * tau)


def mlp(layers, phi: np.ndarray, keep_activations: bool = False):
    """The network, unchecked, on a prebuilt feature matrix and ``unpack``'s layers.

    With ``keep_activations`` the result is ``(out, activations)``: the input
    of every layer, ``phi`` first, from which ``backward`` forms gradients.
    """
    hs = [phi]
    for w, b in layers[:-1]:
        z = hs[-1] @ w.T
        z += b
        hs.append(np.tanh(z, out=z))  # in place: large batches keep fewer temporaries alive
    w, b = layers[-1]
    out = hs[-1] @ w.T + b
    return (out, hs) if keep_activations else out


def forward(arch: Architecture, params: np.ndarray, x, tau, context):
    """Velocity prediction through ``features`` and ``mlp``. Batch in, batch
    out; single sample in, vector out."""
    out = mlp(unpack(arch, params), features(arch, x, tau, context))
    return out[0] if np.asarray(x).ndim == 1 else out


def backward(layers, activations, upstream):
    """Exact reverse-mode gradient of ``sum_n <upstream_n, out_n>`` from
    ``unpack``'s layers and the activations ``mlp`` kept with them.

    Returns ``(param_grad, input_grad)``: ``param_grad`` is flat like the
    parameter vector; ``input_grad`` has one row per sample in feature space.
    """
    n = activations[0].shape[0]
    upstream = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
    out_dim = layers[-1][0].shape[0]
    if upstream.shape != (n, out_dim):
        raise ValueError(f"upstream shape {upstream.shape} != {(n, out_dim)}")
    # the output layer is linear; hidden layers are tanh
    per_layer = [None] * len(layers)
    delta = upstream
    for idx in range(len(layers) - 1, -1, -1):
        w, _ = layers[idx]
        per_layer[idx] = (delta.T @ activations[idx], delta.sum(axis=0))
        delta = delta @ w
        if idx > 0:
            delta *= 1.0 - activations[idx] ** 2
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in per_layer])
    return flat, delta


def grad(arch: Architecture, params: np.ndarray, x, tau, context, upstream):
    """Exact reverse-mode gradient of ``sum_n <upstream_n, forward(params, x_n)>``:
    ``backward``'s ``(param_grad, input_grad)``, whose leading ``state_dim``
    input columns are the derivative w.r.t. the state.
    """
    single = np.asarray(x).ndim == 1
    layers = unpack(arch, params)
    _, activations = mlp(layers, features(arch, x, tau, context), keep_activations=True)
    flat, delta = backward(layers, activations, upstream)
    return flat, (delta[0] if single else delta)


@dataclass
class AdamState:
    """First/second moment accumulators and step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(n_params: int) -> AdamState:
    return AdamState(m=np.zeros(n_params), v=np.zeros(n_params), t=0)


def adam_update(
    params: np.ndarray,
    gradient: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps_opt: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """One adaptive-moment descent step with bias correction.

    Callers maximizing an objective pass the negated gradient.
    """
    g = np.asarray(gradient, dtype=np.float64)
    if g.shape != params.shape:
        raise ValueError(f"gradient shape {g.shape} != params shape {params.shape}")
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + eps_opt)
    return new_params, AdamState(m=m, v=v, t=t)


def save_checkpoint(path, arch: Architecture, params: np.ndarray) -> None:
    """Write parameters as JSON: architecture header plus the flat value list.

    JSON floats use shortest round-trip repr, so doubles survive exactly.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "architecture": {
            "input_dim": arch.input_dim,
            "hidden_dims": list(arch.hidden_dims),
            "output_dim": arch.output_dim,
            "activation": arch.activation,
        },
        "values": np.asarray(params, dtype=np.float64).tolist(),
    }
    Path(path).write_text(json.dumps(payload) + "\n")


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
        arch = Architecture(
            input_dim=int(head["input_dim"]),
            hidden_dims=tuple(int(h) for h in head["hidden_dims"]),
            output_dim=int(head["output_dim"]),
            activation=str(head["activation"]),
        )
        params = np.asarray(payload["values"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc!r}") from exc
    if params.shape != (param_count(arch),):
        raise ValueError("checkpoint value count does not match its architecture header")
    if not np.all(np.isfinite(params)):
        raise ValueError("checkpoint contains non-finite values")
    return arch, params
