"""Rectified-flow mathematics: interpolation path, flow-matching loss,
deterministic and stochastic samplers, Gaussian step densities, per-step KL.

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

    tau is clamped to [tau_clamp_lo, tau_clamp_hi] inside ``sigma`` and the
    drift's 1/(2*tau) factor, which keeps both ends of the grid finite. The
    defaults put the clamps half a step inside the grid.
    """

    a: float = 0.7
    num_steps: int = 10
    tau_clamp_lo: float | None = None
    tau_clamp_hi: float | None = None

    def __post_init__(self) -> None:
        if self.a < 0.0:
            raise ValueError("noise level a must be >= 0")
        if self.num_steps < 2:
            raise ValueError("need at least 2 sampling steps")
        lo = self.tau_clamp_lo if self.tau_clamp_lo is not None else 0.5 / self.num_steps
        hi = self.tau_clamp_hi if self.tau_clamp_hi is not None else 1.0 - 0.5 / self.num_steps
        object.__setattr__(self, "tau_clamp_lo", float(lo))
        object.__setattr__(self, "tau_clamp_hi", float(hi))
        if not (0.0 < self.tau_clamp_lo < self.tau_clamp_hi < 1.0):
            raise ValueError("clamping bounds must satisfy 0 < lo < hi < 1")

    @property
    def dtau(self) -> float:
        return 1.0 / self.num_steps

    def clamp(self, tau: float) -> float:
        return min(max(float(tau), self.tau_clamp_lo), self.tau_clamp_hi)

    def tau_grid(self) -> np.ndarray:
        """Descending times tau_T .. tau_1 visited during generation."""
        return np.arange(self.num_steps, 0, -1) / self.num_steps


@dataclass(frozen=True)
class StepDistribution:
    """Isotropic Gaussian over the next state: mean vector(s) and a variance,
    scalar or one per row of a batch of means."""

    mean: np.ndarray
    var: float | np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        if np.any(np.asarray(self.var) < 0.0) or not np.all(np.isfinite(self.var)):
            raise ValueError("variance must be finite and >= 0")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("non-finite step mean")


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
    s2 = sigma(tau, schedule) ** 2
    mean = step_mean(np.asarray(x, dtype=np.float64), v, schedule.clamp(tau), s2, dtau)
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
    dist = step_distribution(arch, params, x, tau, dtau, schedule, context)
    sig = sigma(tau, schedule)
    x_next = dist.mean + sig * math.sqrt(dtau) * noise
    _check_finite(x_next, "SDE state")
    return x_next, dist


def euler_ode_step(arch: Architecture, params: np.ndarray, x, tau: float, dtau: float, context) -> np.ndarray:
    """Deterministic Euler step x - dtau * v along the learned field."""
    v = diffnet.forward(arch, params, x, tau, context)
    return np.asarray(x, dtype=np.float64) - dtau * v


def ode_project(arch: Architecture, params: np.ndarray, s, tau: float, context) -> np.ndarray:
    """One-step projection of a state at time tau to its virtual terminal sample."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau outside [0, 1]")
    v = diffnet.forward(arch, params, s, tau, context)
    return np.asarray(s, dtype=np.float64) - tau * v


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
    v, activations = diffnet.forward(arch, params, xt, tau, context, keep_activations=True)
    resid = target - v
    loss = float((resid ** 2).sum(axis=1).mean())
    upstream = (-2.0 / x0.shape[0]) * resid
    pgrad, _ = diffnet.backward(arch, params, activations, upstream)
    return loss, pgrad


def sample_terminal_ode(
    arch: Architecture,
    params: np.ndarray,
    schedule: NoiseSchedule,
    context,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Deterministic generation: integrate the field from noise to n samples."""
    x = rng.standard_normal((n, arch.state_dim))
    for t in range(schedule.num_steps, 0, -1):
        x = euler_ode_step(arch, params, x, t / schedule.num_steps, schedule.dtau, context)
    return x


def sample_terminal_sde(
    arch: Architecture,
    params: np.ndarray,
    schedule: NoiseSchedule,
    context,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Stochastic generation with the exploration sampler; same marginals as ODE."""
    x = rng.standard_normal((n, arch.state_dim))
    for t in range(schedule.num_steps, 0, -1):
        noise = rng.standard_normal(x.shape)
        x, _ = sde_step(arch, params, x, t / schedule.num_steps, schedule.dtau, schedule, noise, context)
    return x
