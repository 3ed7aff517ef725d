"""Rectified-flow mathematics: interpolation path, flow-matching loss, the
Euler ODE sampler, the stochastic sampling step, Gaussian step densities,
per-step KL.

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

VAR_MATCH_TOL = 1e-12


class NonFiniteStep(RuntimeError):
    """A sampling step produced non-finite values; ``rows`` lists the batch
    rows they sit in."""

    def __init__(self, message: str, rows: np.ndarray):
        super().__init__(message)
        self.rows = rows


def _check_finite(values: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(np.atleast_2d(values)).all(axis=1)
    if bad.any():
        raise NonFiniteStep(f"non-finite {what}", np.flatnonzero(bad))


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


@dataclass(frozen=True)
class StepDistribution:
    """Isotropic Gaussian over the next state: mean vector(s) and a variance,
    scalar or one per row of a batch of means; the samplers check the means."""

    mean: np.ndarray
    var: float | np.ndarray


def interpolate(x0, x1, tau):
    """Linear path (1 - tau) * x0 + tau * x1; tau scalar or per-sample."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError(f"shape mismatch {x0.shape} vs {x1.shape}")
    tau = np.asarray(tau, dtype=np.float64)
    if np.any(tau < 0.0) or np.any(tau > 1.0):
        raise ValueError("tau outside [0, 1]")
    if x0.ndim == 2 and tau.ndim == 1:
        tau = tau[:, None]
    return (1.0 - tau) * x0 + tau * x1


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
    dtau: float,
    schedule: NoiseSchedule,
    context,
) -> StepDistribution:
    """Transition distribution of one stochastic step tau -> tau - dtau.

    mean = x - [v + (sigma^2 / (2 tau')) * (x + (1 - tau') * v)] * dtau,
    var = sigma^2 * dtau, with v the predicted velocity at (x, tau).
    """
    v = diffnet.forward(arch, params, x, tau, context)
    return _step_distribution(np.asarray(x, dtype=np.float64), v, tau, dtau, schedule)


def _step_distribution(x, v, tau: float, dtau: float, schedule: NoiseSchedule) -> StepDistribution:
    s2 = sigma(tau, schedule) ** 2
    mean = step_mean(x, v, schedule.clamp(tau), s2, dtau)
    _check_finite(mean, "step mean")
    return StepDistribution(mean=mean, var=s2 * dtau)


def step_mean(x, v, tau_clamped, s2, dtau: float):
    """Mean of the stochastic step from the predicted velocity v at x.

    ``tau_clamped`` and ``s2`` (sigma^2) are scalars, or (n, 1) columns that
    give each row of a batch its own time.
    """
    drift = v + (s2 / (2.0 * tau_clamped)) * (x + (1.0 - tau_clamped) * v)
    return x - drift * dtau


def mean_velocity_coeff(tau: float, dtau: float, schedule: NoiseSchedule) -> float:
    """d(mean)/d(v) of ``step_distribution``: -dtau * (1 + sigma^2 (1-tau')/(2 tau'))."""
    tc = schedule.clamp(tau)
    s2 = sigma(tau, schedule) ** 2
    return -dtau * (1.0 + s2 * (1.0 - tc) / (2.0 * tc))


def sde_step(
    arch: Architecture,
    params: np.ndarray,
    x,
    tau: float,
    dtau: float,
    schedule: NoiseSchedule,
    noise,
    context,
) -> tuple[np.ndarray, StepDistribution]:
    """One stochastic sampling step; returns (x_next, transition distribution).

    ``noise`` is a standard-normal draw shaped like ``x``. With a = 0 the
    diffusion and drift-correction terms vanish and the step equals the Euler
    ODE step exactly.
    """
    noise = np.asarray(noise, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)
    if noise.shape != x_arr.shape:
        raise ValueError(f"noise shape {noise.shape} != state shape {x_arr.shape}")
    v = diffnet.forward(arch, params, x, tau, context)
    return sde_update(x_arr, v, tau, dtau, schedule, noise)


def sde_update(x: np.ndarray, v: np.ndarray, tau: float, dtau: float, schedule: NoiseSchedule, noise: np.ndarray):
    """``sde_step`` from the velocity v already predicted at (x, tau), unchecked;
    raises ``NonFiniteStep`` when the mean or the next state is not finite."""
    dist = _step_distribution(x, v, tau, dtau, schedule)
    x_next = dist.mean + sigma(tau, schedule) * math.sqrt(dtau) * noise
    _check_finite(x_next, "SDE state")
    return x_next, dist


def euler_update(x: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """Euler step x - h * v; with h = tau, the one-step projection to tau = 0."""
    return x - h * v


def ode_project(arch: Architecture, params: np.ndarray, s, tau: float, context) -> np.ndarray:
    """One-step projection of a state at time tau to its virtual terminal sample."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau outside [0, 1]")
    v = diffnet.forward(arch, params, s, tau, context)
    return euler_update(np.asarray(s, dtype=np.float64), v, tau)


def transition_logpdf(x_next, dist: StepDistribution):
    """Isotropic Gaussian log-density of x_next under a step distribution."""
    if np.any(np.asarray(dist.var) <= 0.0):
        raise ValueError("deterministic step (variance 0) has no transition density")
    x_next = np.atleast_2d(np.asarray(x_next, dtype=np.float64))
    mean = np.atleast_2d(dist.mean)
    if x_next.shape != mean.shape:
        raise ValueError(f"shape mismatch {x_next.shape} vs {mean.shape}")
    d = x_next.shape[1]
    sq = ((x_next - mean) ** 2).sum(axis=1)
    out = -0.5 * d * np.log(2.0 * np.pi * dist.var) - sq / (2.0 * dist.var)
    return float(out[0]) if np.asarray(dist.mean).ndim == 1 else out


def kl_step(dist_p: StepDistribution, dist_q: StepDistribution):
    """KL between equal-variance Gaussian steps: ||mean_p - mean_q||^2 / (2 var)."""
    if np.any(np.asarray(dist_p.var) <= 0.0) or np.any(np.asarray(dist_q.var) <= 0.0):
        raise ValueError("KL undefined for zero-variance steps")
    if np.max(np.abs(np.subtract(dist_p.var, dist_q.var))) > VAR_MATCH_TOL:
        raise ValueError(f"variance mismatch: {dist_p.var} vs {dist_q.var}")
    mp = np.atleast_2d(dist_p.mean)
    mq = np.atleast_2d(dist_q.mean)
    if mp.shape != mq.shape:
        raise ValueError(f"shape mismatch {mp.shape} vs {mq.shape}")
    out = ((mp - mq) ** 2).sum(axis=1) / (2.0 * dist_p.var)
    return float(out[0]) if np.asarray(dist_p.mean).ndim == 1 else out


def fm_loss_and_grad(arch: Architecture, params: np.ndarray, x0, x1, tau, context):
    """Flow-matching loss mean_n ||(x1 - x0) - v(x_tau, tau)||^2 and its gradient.

    The regression target is the straight-path velocity x1 - x0 evaluated at
    the interpolated point; the gradient is exact reverse mode.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    if x0.shape[0] == 0:
        raise ValueError("empty batch")
    xt = interpolate(x0, x1, tau)
    target = x1 - x0
    layers = diffnet.unpack(arch, params)
    v, activations = diffnet.mlp(layers, diffnet.features(arch, xt, tau, context), keep_activations=True)
    resid = target - v
    loss = float((resid ** 2).sum(axis=1).mean())
    upstream = (-2.0 / x0.shape[0]) * resid
    pgrad, _ = diffnet.backward(layers, activations, upstream)
    return loss, pgrad


def sample_terminal_ode(
    arch: Architecture,
    params: np.ndarray,
    schedule: NoiseSchedule,
    context,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Deterministic generation: integrate the field from noise to n samples
    by Euler steps x - dtau * v.

    The features are built and checked once; each step rewrites their state
    and time columns. A non-finite state raises ``NonFiniteStep`` naming the
    step and the context.
    """
    layers = diffnet.unpack(arch, params)
    x = rng.standard_normal((n, arch.state_dim))
    phi = diffnet.features(arch, x, 1.0, context)
    for t in range(schedule.num_steps, 0, -1):
        diffnet.write_state_time(arch, phi, x, t / schedule.num_steps)
        x = euler_update(x, diffnet.mlp(layers, phi), schedule.dtau)
        _check_finite(x, f"ODE state at step t={t} context={context}")
    return x
