"""Synthetic generative tasks: Gaussian-mixture data for pretraining,
conditioning contexts, analytic rewards in [0, 1], and a reward-independent
quality oracle (exact mixture log-density) for reward-hacking monitoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TASK_NAMES = ("mode-preference", "half-plane", "ring")


@dataclass(frozen=True)
class TaskSpec:
    """One synthetic task: a Gaussian-mixture data distribution plus a reward.

    The fields are the flat task recipe (the config keys are ``task`` for
    ``name`` and ``task_<field>`` for the rest); each task reads the ones it
    needs:

    - mode-preference: ``num_modes`` centers on the circle of ``radius``
      (2-D) or evenly spaced on [-radius, radius] (1-D); each context
      designates one mode as the reward target.
    - half-plane: two modes at x[0] = +-``radius``; the reward is a logistic
      in x[0].
    - ring: ``num_modes`` centers on the circle of ``ring_radius`` (2-D);
      the reward peaks on that circle.

    ``mode_centers``, when given, replaces the worked-out layout; such a task
    has no config form. Every task weights its modes equally. ``centers()``,
    ``weights()`` and ``cdf()`` return read-only arrays worked out once.
    """

    name: str = "mode-preference"
    state_dim: int = 2
    num_modes: int = 8
    radius: float = 3.0
    mode_var: float = 0.15
    context_count: int = 8
    sharpness: float = 1.0
    ring_radius: float = 2.0
    mode_centers: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.name not in TASK_NAMES:
            raise ValueError(f"unknown task {self.name!r} (have {list(TASK_NAMES)})")
        if self.state_dim < 1:
            raise ValueError("state_dim must be >= 1")
        if self.mode_centers is not None:
            centers = tuple(tuple(float(v) for v in c) for c in self.mode_centers)
            if not all(math.isfinite(v) for c in centers for v in c):
                raise ValueError("mode_centers must be finite")
            object.__setattr__(self, "mode_centers", centers)
        if not (-math.inf < self.radius < math.inf and -math.inf < self.ring_radius < math.inf):
            raise ValueError("radius and ring_radius must be finite")
        centers = self._layout()
        if len(centers) == 0:
            raise ValueError("need at least one mode")
        if centers.shape[1] != self.state_dim:
            raise ValueError("mode center dimension != state_dim")
        if not (0.0 < self.mode_var < math.inf and 0.0 < self.sharpness < math.inf):
            raise ValueError("mode_var and sharpness must be finite and > 0")
        if self.context_count < 1:
            raise ValueError("context_count must be >= 1")
        if self.name == "mode-preference" and self.context_count > len(centers):
            raise ValueError("mode-preference needs context_count <= number of modes")
        if self.name == "ring" and self.ring_radius <= 0.0:
            raise ValueError("ring task needs ring_radius > 0")
        weights = np.full(len(centers), 1.0 / len(centers))
        # the mode CDF exactly as Generator.choice(p=weights) forms it
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        centers.flags.writeable = weights.flags.writeable = cdf.flags.writeable = False
        object.__setattr__(self, "_centers", centers)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_cdf", cdf)

    def _layout(self) -> np.ndarray:
        """(M, state_dim) mode centers of the task."""
        if self.mode_centers is not None:
            return np.array(self.mode_centers, dtype=np.float64, ndmin=2)
        if self.name == "half-plane":
            centers = np.zeros((2, self.state_dim))
            centers[:, 0] = (-self.radius, self.radius)
            return centers
        if self.name == "ring" and self.state_dim != 2:
            raise ValueError(f"ring task needs state_dim 2, got {self.state_dim}")
        radius = self.ring_radius if self.name == "ring" else self.radius
        if self.state_dim == 2:
            angles = 2.0 * np.pi * np.arange(self.num_modes) / self.num_modes
            return np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
        if self.state_dim == 1:
            if self.num_modes == 1:
                return np.zeros((1, 1))
            return np.linspace(-radius, radius, self.num_modes)[:, None]
        raise ValueError("built-in mode layouts cover state_dim 1 and 2")

    def centers(self) -> np.ndarray:
        return self._centers

    def weights(self) -> np.ndarray:
        return self._weights

    def cdf(self) -> np.ndarray:
        return self._cdf


def sample_context(task: TaskSpec, rng: np.random.Generator) -> int:
    """Uniform draw over the task's conditioning contexts."""
    return int(rng.integers(0, task.context_count))


def sample_data(task: TaskSpec, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows of the full data mixture made from given draws: ``u`` uniform on
    [0, 1) of any shape, ``z`` standard normal of shape ``u.shape +
    (state_dim,)``.

    Each row is the center of the mode the inverse CDF picks for its ``u``,
    plus sqrt(mode_var) times its ``z``. ``Generator.choice(p=weights)``
    picks a mode from ``rng.random()`` the same way, so ``u = rng.random(n)``
    followed by ``z = rng.standard_normal((n, state_dim))`` gives the rows of
    choice's draws. Pretraining data deliberately carries no context, so that
    RL has to move conditional mass toward the designated mode.
    """
    modes = task.cdf().searchsorted(u, side="right")
    return task.centers()[modes] + math.sqrt(task.mode_var) * z


def _logistic(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def squared_distance(x2: np.ndarray, center) -> np.ndarray:
    """((x2 - center) ** 2).sum(axis=1) bit for bit, for a (d,) center or one
    per row: below 8 terms numpy's row sum adds them in order, as this fold
    over the columns does without a row reduction; from 8 on it pairs them."""
    if x2.shape[1] >= 8:
        return ((x2 - center) ** 2).sum(axis=1)
    sq, diff = np.zeros(len(x2)), np.empty(len(x2))
    for k in range(x2.shape[1]):
        np.subtract(x2[:, k], center[..., k], out=diff)
        sq += np.multiply(diff, diff, out=diff)
    return sq


def reward(task: TaskSpec, x, context):
    """Analytic task reward in [0, 1] for state(s) x under conditioning
    ``context`` (one int, or one per row of a batch), scored on terminal
    samples and on projected virtual terminals alike. Like ``quality`` it
    runs unchecked: ``trainer.instant_rewards`` checks its projections and
    the evaluation sampler its samples as they are made, and the contexts
    are ``sample_context``'s draws or the task's range."""
    x2 = np.atleast_2d(x)
    s = task.sharpness
    if task.name == "mode-preference":
        center = task.centers()[context]
        r = np.exp(-s * squared_distance(x2, center))
    elif task.name == "half-plane":
        r = _logistic(s * x2[:, 0])
    else:  # ring
        r = np.exp(-s * (np.linalg.norm(x2, axis=1) - task.ring_radius) ** 2)
    return float(r[0]) if np.asarray(x).ndim == 1 else r


def quality(task: TaskSpec, x):
    """Exact log-density of x under the task's full mixture.

    This plays the role of a held-out quality score: it does not depend on
    the conditioning context, so reward can rise while quality falls. x is
    read unchecked: ``evaluate`` passes the samples its sampler has checked.
    """
    x2 = np.atleast_2d(x)
    d = task.state_dim
    norm = 0.5 * d * np.log(2.0 * np.pi * task.mode_var)
    scale = 2.0 * task.mode_var
    # mode by mode, log of w_m * N(x; c_m, var I) as a contiguous (n,) term,
    # the terms folded over the modes in the order of np.logaddexp.reduce
    out = None
    for center, log_w in zip(task.centers(), np.log(task.weights())):
        sq = squared_distance(x2, center)
        sq /= scale
        term = np.subtract(log_w - norm, sq, out=sq)
        out = term if out is None else np.logaddexp(out, term, out=out)
    return float(out[0]) if np.asarray(x).ndim == 1 else out
