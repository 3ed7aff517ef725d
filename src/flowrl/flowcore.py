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

import math
from dataclasses import dataclass

import numpy as np

from . import diffnet
from .diffnet import Architecture

class NonFiniteStep(RuntimeError):
    """A sampling step produced non-finite values."""


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteStep(f"non-finite {what}")


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
        if self.a < 0.0:
            raise ValueError("noise level a must be >= 0")
        if self.num_steps < 2:
            raise ValueError("need at least 2 sampling steps")

    @property
    def dtau(self) -> float:
        return 1.0 / self.num_steps

    def clamp(self, tau: float) -> float:
        half_step = 0.5 / self.num_steps
        return min(max(float(tau), half_step), 1.0 - half_step)

    def tau_grid(self) -> np.ndarray:
        """Descending times tau_T .. tau_1 visited during generation."""
        return np.arange(self.num_steps, 0, -1) / self.num_steps


def sigma(tau: float, schedule: NoiseSchedule) -> float:
    """Noise magnitude a * sqrt(tau' / (1 - tau')) with tau' clamped."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau outside [0, 1]")
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

    ``tau_clamped`` and ``s2`` (sigma^2) are scalars, or (n, 1) columns that
    give each row of a batch its own time.
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
    x_arr = np.asarray(x, dtype=np.float64)
    if noise.shape != x_arr.shape:
        raise ValueError(f"noise shape {noise.shape} != state shape {x_arr.shape}")
    v = diffnet.forward(arch, params, x, tau, context)
    return sde_update(x_arr, v, tau, schedule, noise)


def sde_update(x: np.ndarray, v: np.ndarray, tau: float, schedule: NoiseSchedule, noise: np.ndarray):
    """``sde_step`` from the velocity v already predicted at (x, tau), unchecked:
    a non-finite next state is the caller's to detect."""
    sig, dtau = sigma(tau, schedule), schedule.dtau
    mean = step_mean(x, v, schedule.clamp(tau), sig ** 2, dtau)
    return mean + sig * math.sqrt(dtau) * noise, mean, sig ** 2 * dtau


def euler_update(x: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """Euler step x - h * v; with h = tau, the one-step projection to tau = 0."""
    return x - h * v


def ode_project(arch: Architecture, params: np.ndarray, s, tau: float, context) -> np.ndarray:
    """One-step projection of a state at time tau to its virtual terminal sample."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau outside [0, 1]")
    v = diffnet.forward(arch, params, s, tau, context)
    return euler_update(np.asarray(s, dtype=np.float64), v, tau)


def transition_logpdf(x_next: np.ndarray, mean: np.ndarray, var):
    """(n,) log-densities of the (n, d) rows x_next under isotropic Gaussians
    with the (n, d) means and variance ``var`` (a scalar, or one per row)."""
    if np.any(var <= 0.0):
        raise ValueError("deterministic step (variance 0) has no transition density")
    sq = ((x_next - mean) ** 2).sum(axis=1)
    return -0.5 * x_next.shape[1] * np.log(2.0 * np.pi * var) - sq / (2.0 * var)


def kl_step(mean_p: np.ndarray, mean_q: np.ndarray, var):
    """(n,) KL between isotropic Gaussian steps with the (n, d) means and one
    variance ``var`` (a scalar, or one per row): ||mean_p - mean_q||^2 / (2 var)."""
    if np.any(var <= 0.0):
        raise ValueError("KL undefined for zero-variance steps")
    return ((mean_p - mean_q) ** 2).sum(axis=1) / (2.0 * var)


def fm_loss_and_grad(arch: Architecture, layers, phi, hs, x0, x1, tau, grads) -> float:
    """Flow-matching loss mean_n ||(x1 - x0) - v(x_tau, tau)||^2, unchecked,
    with its gradient written into ``grads`` (``unpack``'s views of a flat
    vector).

    The regression target is the straight-path velocity x1 - x0 at the point
    x_tau = (1 - tau) x0 + tau x1 of the (n, d) rows, one tau per row.
    ``phi`` is the (n, input_dim) feature matrix whose context block the
    caller has filled; its state and time columns are overwritten here, and
    the network writes into ``hs``, its ``diffnet.layer_buffers`` for n rows.
    """
    tau_col = tau[:, None]
    diffnet.write_state_time(arch, phi, (1.0 - tau_col) * x0 + tau_col * x1, tau)
    resid = (x1 - x0) - diffnet.mlp(layers, phi, hs)
    diffnet.backward(layers, [phi, *hs[:-1]], (-2.0 / x0.shape[0]) * resid, grads)
    return float((resid ** 2).sum(axis=1).mean())


def sample_terminal_ode(
    arch: Architecture,
    params: np.ndarray,
    schedule: NoiseSchedule,
    context,
    n: int,
    rng: np.random.Generator,
    hs=None,
) -> np.ndarray:
    """Deterministic generation: integrate the field from noise to n samples
    by Euler steps x - dtau * v.

    The features are built and checked once; each step rewrites their state
    and time columns. ``hs`` are the network's ``diffnet.layer_buffers`` for
    n rows, which a caller sampling several contexts allocates once for all
    of them; without them the call allocates its own, before its other
    arrays. Each step writes the new state into the first draw's array, so
    that successive calls reuse the memory the last one freed instead of
    raising peak memory. A non-finite state raises ``NonFiniteStep`` naming
    the step and the context.
    """
    layers = diffnet.unpack(arch, params)
    if hs is None:
        hs = diffnet.layer_buffers(layers, n)
    x = rng.standard_normal((n, arch.state_dim))
    phi = diffnet.features(arch, x, 1.0, context)
    for t in range(schedule.num_steps, 0, -1):
        diffnet.write_state_time(arch, phi, x, t / schedule.num_steps)
        x[:] = euler_update(x, diffnet.mlp(layers, phi, hs), schedule.dtau)
        _check_finite(x, f"ODE state at step t={t} context={context}")
    return x
