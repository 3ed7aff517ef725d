"""Synthetic generative tasks: Gaussian-mixture data for pretraining,
conditioning contexts, analytic rewards in [0, 1], and a reward-independent
quality oracle (exact mixture log-density) for reward-hacking monitoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TASK_NAMES = ("mode-preference", "half-plane", "ring")
REWARD_KINDS = ("terminal", "projected")


@dataclass(frozen=True)
class TaskSpec:
    """One synthetic task: a Gaussian-mixture data distribution plus a reward.

    Mixture centers/weights are stored as tuples so specs hash and compare
    cleanly; use ``centers()`` / ``weights()`` for the array views. ``params``
    holds the named parameters the spec was built from, as sorted (name,
    value) pairs, so a configuration can be written back exactly; it takes no
    part in comparisons.
    """

    name: str
    state_dim: int
    mode_centers: tuple[tuple[float, ...], ...]
    mode_weights: tuple[float, ...]
    mode_var: float
    context_count: int
    reward_sharpness: float
    ring_radius: float | None = None
    params: tuple[tuple[str, object], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.name not in TASK_NAMES:
            raise ValueError(f"unknown task {self.name!r}")
        if self.state_dim < 1:
            raise ValueError("state_dim must be >= 1")
        if len(self.mode_centers) != len(self.mode_weights) or not self.mode_centers:
            raise ValueError("need one weight per mode center")
        if any(len(c) != self.state_dim for c in self.mode_centers):
            raise ValueError("mode center dimension != state_dim")
        if abs(sum(self.mode_weights) - 1.0) > 1e-9 or any(w < 0 for w in self.mode_weights):
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        if self.mode_var <= 0.0:
            raise ValueError("mode_var must be > 0")
        if self.context_count < 1:
            raise ValueError("context_count must be >= 1")
        if self.name == "mode-preference" and self.context_count > len(self.mode_centers):
            raise ValueError("mode-preference needs context_count <= number of modes")
        if self.reward_sharpness <= 0.0:
            raise ValueError("reward_sharpness must be > 0")
        if self.name == "ring" and (self.ring_radius is None or self.ring_radius <= 0.0):
            raise ValueError("ring task needs ring_radius > 0")

    def centers(self) -> np.ndarray:
        return np.asarray(self.mode_centers, dtype=np.float64)

    def weights(self) -> np.ndarray:
        return np.asarray(self.mode_weights, dtype=np.float64)


@dataclass(frozen=True)
class RewardModel:
    """Analytic reward in [0, 1]; ``kind`` tags whether scores are taken on
    terminal samples or on projected virtual terminals."""

    task: TaskSpec
    kind: str = "terminal"

    def __post_init__(self) -> None:
        if self.kind not in REWARD_KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}")


def _params(**values) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(values.items()))


def mode_preference_task(
    num_modes: int = 8,
    radius: float = 3.0,
    mode_var: float = 0.15,
    context_count: int = 8,
    sharpness: float = 1.0,
    state_dim: int = 2,
    centers=None,
) -> TaskSpec:
    """Modes on a circle (2-D) or evenly spaced on a line (1-D); each context
    designates one mode as the reward target."""
    if centers is None:
        if state_dim == 2:
            angles = 2.0 * np.pi * np.arange(num_modes) / num_modes
            centers = np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
        elif state_dim == 1:
            if num_modes == 1:
                centers = np.zeros((1, 1))
            else:
                centers = np.linspace(-radius, radius, num_modes)[:, None]
        else:
            raise ValueError("built-in mode layouts cover state_dim 1 and 2")
    centers = np.asarray(centers, dtype=np.float64)
    weights = tuple(1.0 / len(centers) for _ in range(len(centers)))
    return TaskSpec(
        name="mode-preference",
        state_dim=state_dim,
        mode_centers=tuple(tuple(float(v) for v in c) for c in centers),
        mode_weights=weights,
        mode_var=mode_var,
        context_count=context_count,
        reward_sharpness=sharpness,
        params=_params(num_modes=num_modes, radius=radius, mode_var=mode_var,
                       context_count=context_count, sharpness=sharpness, state_dim=state_dim),
    )


def half_plane_task(
    state_dim: int = 2,
    separation: float = 1.5,
    mode_var: float = 0.25,
    context_count: int = 1,
    sharpness: float = 1.0,
) -> TaskSpec:
    """Two modes straddling the x[0] = 0 boundary; reward is a logistic in x[0]."""
    left = [-separation] + [0.0] * (state_dim - 1)
    right = [separation] + [0.0] * (state_dim - 1)
    return TaskSpec(
        name="half-plane",
        state_dim=state_dim,
        mode_centers=(tuple(left), tuple(right)),
        mode_weights=(0.5, 0.5),
        mode_var=mode_var,
        context_count=context_count,
        reward_sharpness=sharpness,
        params=_params(state_dim=state_dim, separation=separation, mode_var=mode_var,
                       context_count=context_count, sharpness=sharpness),
    )


def ring_task(
    ring_radius: float = 2.0,
    num_modes: int = 8,
    mode_var: float = 0.1,
    context_count: int = 1,
    sharpness: float = 1.0,
) -> TaskSpec:
    """Data modes on a circle; reward peaks on the circle of ``ring_radius``."""
    angles = 2.0 * np.pi * np.arange(num_modes) / num_modes
    centers = np.stack([ring_radius * np.cos(angles), ring_radius * np.sin(angles)], axis=1)
    return TaskSpec(
        name="ring",
        state_dim=2,
        mode_centers=tuple(tuple(float(v) for v in c) for c in centers),
        mode_weights=tuple(1.0 / num_modes for _ in range(num_modes)),
        mode_var=mode_var,
        context_count=context_count,
        reward_sharpness=sharpness,
        ring_radius=ring_radius,
        params=_params(ring_radius=ring_radius, num_modes=num_modes, mode_var=mode_var,
                       context_count=context_count, sharpness=sharpness),
    )


def default_task() -> TaskSpec:
    return mode_preference_task()


def sample_context(task: TaskSpec, rng: np.random.Generator) -> int:
    """Uniform draw over the task's conditioning contexts."""
    return int(rng.integers(0, task.context_count))


def sample_data(task: TaskSpec, context, rng: np.random.Generator, n: int | None = None):
    """Draw from the full data mixture.

    Pretraining data deliberately ignores ``context`` so that RL has to move
    conditional mass toward the designated mode; the argument is kept for
    conditional task variants.
    """
    count = 1 if n is None else int(n)
    centers = task.centers()
    weights = task.weights()
    modes = rng.choice(len(centers), size=count, p=weights / weights.sum())
    x = centers[modes] + math.sqrt(task.mode_var) * rng.standard_normal((count, task.state_dim))
    return x[0] if n is None else x


def _logistic(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reward(rm: RewardModel, x, context):
    """Task reward in [0, 1] for state(s) x under conditioning ``context``
    (one int, or one per row of a batch)."""
    task = rm.task
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x2.shape[1] != task.state_dim:
        raise ValueError(f"state dim {x2.shape[1]} != {task.state_dim}")
    if not np.all(np.isfinite(x2)):
        raise ValueError("non-finite state")
    s = task.reward_sharpness
    if task.name == "mode-preference":
        ctx = np.broadcast_to(np.asarray(context, dtype=np.int64), (x2.shape[0],))
        if np.any(ctx < 0) or np.any(ctx >= task.context_count):
            raise ValueError("context index out of range")
        center = task.centers()[ctx]
        r = np.exp(-s * ((x2 - center) ** 2).sum(axis=1))
    elif task.name == "half-plane":
        r = _logistic(s * x2[:, 0])
    else:  # ring
        r = np.exp(-s * (np.linalg.norm(x2, axis=1) - task.ring_radius) ** 2)
    return float(r[0]) if np.asarray(x).ndim == 1 else r


def quality(task: TaskSpec, x):
    """Exact log-density of x under the task's full mixture.

    This plays the role of a held-out quality score: it does not depend on
    the conditioning context, so reward can rise while quality falls.
    """
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x2.shape[1] != task.state_dim:
        raise ValueError(f"state dim {x2.shape[1]} != {task.state_dim}")
    if not np.all(np.isfinite(x2)):
        raise ValueError("non-finite state")
    centers = task.centers()
    log_w = np.log(task.weights())
    d = task.state_dim
    # (n, M) log of w_m * N(x; c_m, var I)
    sq = ((x2[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    log_terms = log_w[None, :] - 0.5 * d * np.log(2.0 * np.pi * task.mode_var) - sq / (2.0 * task.mode_var)
    out = np.logaddexp.reduce(log_terms, axis=1)
    return float(out[0]) if np.asarray(x).ndim == 1 else out
