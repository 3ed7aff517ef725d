"""Rectified-flow mathematics: the flow-matching loss on the straight path
from data to noise, the Euler ODE sampler, the stochastic sampling step,
Gaussian step densities, per-step KL.

A stochastic step's transition is an isotropic Gaussian given by its mean
rows and its variance sigma(tau)^2 * dtau, which the schedule fixes for every
row at one time; the densities take the two as plain arrays.

Time convention: generation integrates tau from 1 (noise) to 0 (data) on the
uniform grid tau_i = i/T with dtau = 1/T. The stochastic sampler's sign is
fixed so that noise level a = 0 reduces bit-for-bit to the Euler ODE step
``x - dtau * v``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import diffnet
from .diffnet import Architecture

class NonFiniteStep(RuntimeError):
    """A sampling step produced non-finite values."""


def check_states(x: np.ndarray, t: int, contexts, kind: str) -> None:
    """Raise ``NonFiniteStep`` if a row of the (n, d) states x made by step t
    of a sampler (``kind``: "ODE" or "SDE"), or of their projections
    ("projected"), is non-finite, naming the step and the contexts of those
    rows; ``contexts`` is one per row, or one for all.
    The rows are diagnosed only after one whole-array test has failed."""
    if np.isfinite(x).all():
        return
    bad = ~np.isfinite(x).all(axis=1)
    names = ",".join(str(c) for c in np.unique(np.broadcast_to(contexts, bad.shape)[bad]))
    raise NonFiniteStep(f"step t={t} context={names}: non-finite {kind} state")


@dataclass(frozen=True)
class NoiseSchedule:
    """Exploration-noise schedule sigma(tau) = a * sqrt(tau / (1 - tau)).

    tau is clamped to [0.5/T, 1 - 0.5/T], half a step inside the grid, in
    ``sigma`` and the drift's 1/(2*tau) factor, which keeps both ends of the
    grid finite.
    """

    a: float = 0.7
    num_steps: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.a < math.inf:
            raise ValueError(f"noise level a must be finite and >= 0, got {self.a}")
        if self.num_steps < 2:
            raise ValueError("need at least 2 sampling steps")
        # the densities divide by the table's variances: the last step's is the
        # least, the first's the largest (s * s never raises, unlike s ** 2)
        last, first = sigma(1.0 / self.num_steps, self), sigma(1.0, self)
        if self.a > 0.0 and last * last * self.dtau == 0.0:
            raise ValueError(f"noise level a={self.a} is too small: its step variance underflows to 0")
        if not first * first * self.dtau < math.inf:
            raise ValueError(f"noise level a={self.a} is too large: its step variance overflows")

    @property
    def dtau(self) -> float:
        return 1.0 / self.num_steps

    def clamp(self, tau: float) -> float:
        half_step = 0.5 / self.num_steps
        return min(max(float(tau), half_step), 1.0 - half_step)

    def tau_grid(self) -> np.ndarray:
        """Descending times tau_T .. tau_1 visited during generation."""
        return np.arange(self.num_steps, 0, -1) / self.num_steps

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Read-only (5, T) constants of the grid steps, column j for the step
        from tau = (T - j) / T, in generation order. The rows are the clamped
        tau, sigma^2, the step variance sigma^2 * dtau, the noise scale
        sigma * sqrt(dtau) and d(mean)/d(v). Worked out on first use by the
        scalar functions below, so they are the same floats."""
        columns = []
        for tau in self.tau_grid():
            sig = sigma(tau, self)
            columns.append((self.clamp(tau), sig ** 2, sig ** 2 * self.dtau,
                            sig * math.sqrt(self.dtau), mean_velocity_coeff(tau, self)))
        table = np.array(columns).T.copy()
        table.flags.writeable = False
        return table


def sigma(tau: float, schedule: NoiseSchedule) -> float:
    """Noise magnitude a * sqrt(tau' / (1 - tau')) with tau' clamped, unchecked:
    its taus are grid times, or have just passed ``diffnet.features``."""
    tc = schedule.clamp(tau)
    return schedule.a * math.sqrt(tc / (1.0 - tc))


def step_distribution(
    arch: Architecture,
    params: np.ndarray,
    x,
    tau: float,
    schedule: NoiseSchedule,
    context,
) -> tuple[np.ndarray, float]:
    """(mean, var) of one stochastic step tau -> tau - dtau.

    mean = x - [v + (sigma^2 / (2 tau')) * (x + (1 - tau') * v)] * dtau,
    var = sigma^2 * dtau, with v the predicted velocity at (x, tau) and
    dtau the schedule's step.
    """
    v = diffnet.forward(arch, params, x, tau, context)
    s2 = sigma(tau, schedule) ** 2
    mean = step_mean(np.asarray(x, dtype=np.float64), v, schedule.clamp(tau), s2, schedule.dtau)
    return mean, s2 * schedule.dtau


def step_mean(x, v, tau_clamped, s2, dtau: float):
    """Mean of the stochastic step from the predicted velocity v at x.

    ``tau_clamped`` and ``s2`` (sigma^2) are scalars, or columns that broadcast
    against x, e.g. the (T, 1) table columns of ``trainer.step_means``.
    """
    drift = v + (s2 / (2.0 * tau_clamped)) * (x + (1.0 - tau_clamped) * v)
    return x - drift * dtau


def mean_velocity_coeff(tau: float, schedule: NoiseSchedule) -> float:
    """d(mean)/d(v) of ``step_mean``: -dtau * (1 + sigma^2 (1-tau')/(2 tau'))."""
    tc = schedule.clamp(tau)
    s2 = sigma(tau, schedule) ** 2
    return -schedule.dtau * (1.0 + s2 * (1.0 - tc) / (2.0 * tc))


def sde_step(
    arch: Architecture,
    params: np.ndarray,
    x,
    tau: float,
    schedule: NoiseSchedule,
    noise,
    context,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One stochastic sampling step; returns (x_next, mean, var).

    ``noise`` is a standard-normal draw shaped like ``x``. With a = 0 the
    diffusion and drift-correction terms vanish and the step equals the Euler
    ODE step exactly.
    """
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != np.shape(x):
        raise ValueError(f"noise shape {noise.shape} != state shape {np.shape(x)}")
    mean, var = step_distribution(arch, params, x, tau, schedule, context)
    return mean + sigma(tau, schedule) * math.sqrt(schedule.dtau) * noise, mean, var


def sde_update(x: np.ndarray, v: np.ndarray, t: int, schedule: NoiseSchedule, noise: np.ndarray):
    """``sde_step`` at the grid time tau = t / T from the velocity v already
    predicted at (x, tau), with the constants of ``schedule.table``,
    unchecked: a non-finite next state is the caller's to detect. Returns
    x_next only; ``trainer.step_means`` forms the means of a batch's steps."""
    tau_clamped, s2, _, noise_scale, _ = schedule.table[:, schedule.num_steps - t]
    return step_mean(x, v, tau_clamped, s2, schedule.dtau) + noise_scale * noise


def euler_update(x: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """Euler step x - h * v; with h = tau, the one-step projection to tau = 0."""
    return x - h * v


def ode_project(arch: Architecture, params: np.ndarray, s, tau: float, context) -> np.ndarray:
    """One-step projection of a state at time tau to its virtual terminal sample."""
    v = diffnet.forward(arch, params, s, tau, context)
    return euler_update(np.asarray(s, dtype=np.float64), v, tau)


def transition_logpdf(x_next: np.ndarray, mean: np.ndarray, var):
    """Log-densities of the (..., d) states x_next under isotropic Gaussians
    with the (..., d) means, summed over the last axis; the variance ``var``
    broadcasts against the leading axes, e.g. a (T, 1) column for (T, n, d);
    ``NoiseSchedule`` makes it positive, so it is not checked here."""
    sq = ((x_next - mean) ** 2).sum(axis=-1)
    return -0.5 * x_next.shape[-1] * np.log(2.0 * np.pi * var) - sq / (2.0 * var)


def kl_step(mean_p: np.ndarray, mean_q: np.ndarray, var):
    """KL ||mean_p - mean_q||^2 / (2 var) between isotropic Gaussian steps with
    the (..., d) means; ``var`` broadcasts, unchecked, as in ``transition_logpdf``."""
    return ((mean_p - mean_q) ** 2).sum(axis=-1) / (2.0 * var)


def fm_loss_and_grad(layers, phi, hs, target, grads, deltas) -> np.ndarray:
    """Flow-matching regression of the net on its (n, input_dim) features
    ``phi`` at the points x_tau = (1 - tau) x0 + tau x1, unchecked: returns
    the (n, d) residual r = target - v, whose loss mean_n ||r_n||^2
    ``fm_loss`` forms, and writes that loss's gradient into ``grads``
    (``unpack``'s views of a flat vector).

    ``target`` is the straight-path velocity x1 - x0 of each row. ``hs`` and
    ``deltas`` are ``diffnet.layer_buffers`` for n rows: the network's pass
    writes into ``hs``, and ``diffnet.backward`` spends it.
    """
    resid = target - diffnet.mlp(layers, phi, hs)
    diffnet.backward(layers, phi, hs, (-2.0 / target.shape[0]) * resid, grads, deltas)
    return resid


def fm_loss(resid: np.ndarray) -> float:
    """The flow-matching loss mean_n ||r_n||^2 of ``fm_loss_and_grad``'s residual."""
    return float((resid ** 2).sum(axis=1).mean())


def sample_terminal_ode(
    arch: Architecture, params: np.ndarray, schedule: NoiseSchedule, contexts, n: int, rngs
) -> np.ndarray:
    """Deterministic generation: n samples per context, each context's from
    its generator's float64 normal draw rounded to float32, by Euler steps
    x - dtau * v on a float32 copy of the parameters (one beyond float32's
    range raises ValueError), returned as one float64 (len(contexts), n, d)
    array. A non-finite state raises ``NonFiniteStep`` naming step and context;
    the contexts run unchecked: ``trainer.evaluate`` passes all of the task's.

    No feature matrix is built: within one step and one context the time and
    one-hot features are constants, so the first layer runs on the rows
    [x, 1] against a (d + 1, fan_out) block, the state columns of its weight
    over the row ``time_features(tau) @ W_time.T + W_context[:, c] + b``.
    The later layers get Fortran-ordered weights, so that each product is a
    plain GEMM, and biases as (n, fan_out) rows. These and one set of layer
    buffers serve every context and are freed on return, for scoring to reuse.
    """
    with np.errstate(over="ignore"):
        params32 = params.astype(np.float32)
    if (np.isinf(params32) & np.isfinite(params)).any():
        raise ValueError("parameters exceed the float32 range of the evaluation sampler")
    contexts = list(contexts)
    (w0, b0), *later = diffnet.unpack(arch, params32)
    w_state, w_time, w_context = diffnet.first_layer_blocks(arch, w0)
    later = [(np.asfortranarray(w), np.tile(b, (n, 1))) for w, b in later]
    hs = diffnet.layer_buffers([(w0, b0), *later], n)
    d, steps = arch.state_dim, schedule.num_steps
    times = np.array([diffnet.time_features(t / steps) for t in range(steps, 0, -1)], dtype=np.float32)
    time_rows = times @ w_time.T + b0
    blocks = np.empty((steps, d + 1, w0.shape[0]), dtype=np.float32)
    blocks[:, :d] = w_state.T
    # column-major, so that the state's (n, d) view steps through memory
    # column by column, not in strided rows of d
    x_one = np.ones((n, d + 1), dtype=np.float32, order="F")
    x = x_one[:, :d]
    samples = np.empty((len(contexts), n, d))
    for sample, context, rng in zip(samples, contexts, rngs):
        rng.standard_normal(out=sample)
        x[:] = sample
        np.add(time_rows, w_context[:, context], out=blocks[:, d])
        for t, block in zip(range(steps, 0, -1), blocks):
            v = np.matmul(x_one, block, out=hs[0])
            if later:
                v = diffnet.mlp(later, np.tanh(v, out=v), hs[1:])
            v *= schedule.dtau
            x -= v
            check_states(x, t, context, "ODE")
        sample[:] = x
    return samples
