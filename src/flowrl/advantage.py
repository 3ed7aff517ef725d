"""Advantage estimation: discounted cumulative values, value-driven timestep
weights, and the adaptive dual estimator, a group-relative normalization
that keeps a learning signal alive when within-group reward diversity
vanishes.

Conventions: tables are (..., G, T): group members on axis -2, timesteps on
axis -1 in generation order (step T first, step 1 last), and any leading axes
index independent groups. A column is one timestep of one group. Group
statistics use the population standard deviation (divide by G).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_EPS_STD = 1e-8
DEFAULT_EPS_MEAN = 1e-6


@dataclass(frozen=True)
class StdDiagnostic:
    """Report for one group column: how hard pure relative normalization
    would amplify its reward gaps."""

    std: float
    amplification: float  # 1/std; inf for a constant column
    flagged: bool         # std below the configured threshold
    guard_active: bool    # std below the numerical floor


def _group_stats(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and std of every column, kept as length-1 axis -2."""
    m = q.mean(axis=-2, keepdims=True)
    s = np.sqrt(((q - m) ** 2).mean(axis=-2, keepdims=True))
    return m, s


def cumulative_values(instant_rewards, gamma: float):
    """Discounted cumulative values along each trajectory.

    ``instant_rewards`` is (..., T) in generation order R_T .. R_1; entry t
    accumulates gamma^k R_{t-k} over the remaining steps, i.e. a right-to-left
    scan Q_1 = R_1, Q_t = R_t + gamma * Q_{t-1}.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    r = np.asarray(instant_rewards, dtype=np.float64)
    if r.shape[-1] == 0:
        raise ValueError("empty reward sequence")
    q = np.empty_like(r)
    q[..., -1] = r[..., -1]
    for j in range(r.shape[-1] - 2, -1, -1):
        q[..., j] = r[..., j] + gamma * q[..., j + 1]
    return q


def value_weights(q, eps_mean: float = DEFAULT_EPS_MEAN):
    """Per-step weights Q_t / mean_t(Q) along each trajectory.

    If a trajectory's temporal mean falls below ``eps_mean`` its weights are
    all one (no information to reweight with).
    """
    if eps_mean <= 0.0:
        raise ValueError("eps_mean must be > 0")
    q = np.asarray(q, dtype=np.float64)
    mean_t = q.mean(axis=-1, keepdims=True)
    safe = np.where(mean_t < eps_mean, 1.0, mean_t)
    return np.where(mean_t < eps_mean, 1.0, q / safe)


def adae(q, k: float, omega, eps_std: float = DEFAULT_EPS_STD) -> np.ndarray:
    """Adaptive dual advantages: relative normalization plus an absolute term.

    Per column, with alpha = k * std: A_i = omega_i * ((1 + alpha) * Q_i -
    mean) / max(std, eps). When the column's std falls below ``eps_std`` the
    algebraic limit A_i = omega_i * k * Q_i takes over, so uniformly scored
    groups still produce a (value-proportional) learning signal. With k = 0
    and unit weights it is plain group normalization (Q - mean) / std, zero
    on constant columns.
    """
    q = np.asarray(q, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    if q.ndim < 2 or q.shape[-2] < 2:
        raise ValueError("need a (..., G, T) table with G >= 2")
    if omega.shape != q.shape:
        raise ValueError(f"omega shape {omega.shape} != {q.shape}")
    if k < 0.0 or eps_std <= 0.0:
        raise ValueError("need k >= 0 and eps_std > 0")
    m, s = _group_stats(q)
    relative = ((1.0 + k * s) * q - m) / np.maximum(s, eps_std)
    return omega * np.where(s < eps_std, k * q, relative)


def near_zero_std_diagnostic(
    column,
    threshold: float = 1e-3,
    eps_std: float = DEFAULT_EPS_STD,
) -> StdDiagnostic:
    """Flag a group column whose reward spread would be amplified by 1/std."""
    col = np.asarray(column, dtype=np.float64)
    if col.ndim != 1 or col.shape[0] < 1:
        raise ValueError("need a 1-D column")
    s = float(_group_stats(col[:, None])[1][0, 0])
    amplification = float("inf") if s == 0.0 else 1.0 / s
    return StdDiagnostic(
        std=s,
        amplification=amplification,
        flagged=s < threshold,
        guard_active=s < eps_std,
    )
