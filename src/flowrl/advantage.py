"""Advantage estimation: discounted cumulative values, value-driven timestep
weights, and the adaptive dual estimator, a group-relative normalization
that keeps a learning signal alive when within-group reward diversity
vanishes.

Conventions: tables are (..., G, T): group members on axis -2, timesteps on
axis -1 in generation order (step T first, step 1 last), and any leading axes
index independent groups. A column is one timestep of one group. Group
statistics use the population standard deviation (divide by G).

The formulas run unchecked: ``TrainConfig`` checks gamma, k, eps_std,
eps_mean and G >= 2, and ``trainer.compute_advantages`` builds the tables.
"""

from __future__ import annotations

import numpy as np

DEFAULT_EPS_STD = 1e-8
DEFAULT_EPS_MEAN = 1e-6


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
    q = np.empty_like(instant_rewards)
    q[..., -1] = instant_rewards[..., -1]
    for j in range(q.shape[-1] - 2, -1, -1):
        q[..., j] = instant_rewards[..., j] + gamma * q[..., j + 1]
    return q


def value_weights(q, eps_mean: float = DEFAULT_EPS_MEAN):
    """Per-step weights Q_t / mean_t(Q) along each trajectory.

    If a trajectory's temporal mean falls below ``eps_mean`` its weights are
    all one (no information to reweight with).
    """
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
    m, s = _group_stats(q)
    relative = ((1.0 + k * s) * q - m) / np.maximum(s, eps_std)
    return omega * np.where(s < eps_std, k * q, relative)

