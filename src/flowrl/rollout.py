"""Denoising-MDP executor: samples groups of stochastic trajectories under a
frozen policy and scores every step via one-step terminal projection.

A batch holds one group per context slot, stored as arrays. Each trajectory
draws from its own seed-derived stream (the slot's seed sequence spawns one
child per group member), so batches regenerate bit-identically whatever
their size, while every timestep advances all rows of the batch at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import envsuite, flowcore
from .diffnet import Architecture
from .envsuite import RewardModel
from .flowcore import NoiseSchedule


class RolloutError(RuntimeError):
    """A trajectory produced a non-finite state."""


@dataclass
class RolloutBatch:
    """B groups of G trajectories, one group per context slot.

    Axes are slot, group member, timestep and state dimension. ``states``
    runs in generation order s_T .. s_0; ``instant_rewards`` holds R_T .. R_1
    (chronological), and its last entry equals the terminal reward exactly
    because the projection at tau = 0 is the identity. ``logp_old`` is None
    for deterministic (a = 0) rollouts, which have no transition density.
    """

    contexts: np.ndarray          # (B,)
    schedule: NoiseSchedule
    states: np.ndarray            # (B, G, T+1, D)
    noises: np.ndarray            # (B, G, T, D)
    step_vars: np.ndarray         # (T,)
    logp_old: np.ndarray | None   # (B, G, T)
    instant_rewards: np.ndarray   # (B, G, T)
    terminal_rewards: np.ndarray  # (B, G)

    def __post_init__(self) -> None:
        arrays = ["states", "noises", "step_vars", "instant_rewards", "terminal_rewards"]
        if self.logp_old is not None:
            arrays.append("logp_old")
        if not all(np.all(np.isfinite(getattr(self, name))) for name in arrays):
            raise ValueError("non-finite trajectory entries")
        # the projection at tau = 0 is the identity, so the last instant
        # reward must reproduce the terminal reward
        if not np.array_equal(self.instant_rewards[..., -1], self.terminal_rewards):
            raise ValueError("final instant reward must equal the terminal reward")

    @property
    def group_size(self) -> int:
        return self.states.shape[1]

    @property
    def num_steps(self) -> int:
        return self.states.shape[2] - 1


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (tuple, list)):
        return np.random.SeedSequence(tuple(int(s) for s in seed))
    return np.random.SeedSequence(int(seed))


def instant_reward(
    arch: Architecture,
    params_old: np.ndarray,
    s_next,
    tau_next: float,
    rm: RewardModel,
    context,
):
    """Reward of the one-step projected terminal state reached from s_next."""
    projected = flowcore.ode_project(arch, params_old, s_next, tau_next, context)
    return envsuite.reward(rm, projected, context)


def _draw_noise(seed, group_size: int, t_steps: int, d: int, shared_initial_noise: bool):
    """Initial states (G, D) and step noise (G, T, D) of one slot; each member's
    generator draws its initial state, then its step noise."""
    children = _as_seed_sequence(seed).spawn(group_size + 1)
    rngs = [np.random.default_rng(c) for c in children[:group_size]]
    if shared_initial_noise:
        shared = np.random.default_rng(children[group_size]).standard_normal(d)
        init = np.tile(shared, (group_size, 1))
    else:
        init = np.stack([r.standard_normal(d) for r in rngs])
    return init, np.stack([r.standard_normal((t_steps, d)) for r in rngs])


def rollout_group(
    arch: Architecture,
    params_old: np.ndarray,
    contexts,
    group_size: int,
    schedule: NoiseSchedule,
    rm: RewardModel,
    seeds,
    shared_initial_noise: bool = False,
) -> RolloutBatch:
    """Sample G stochastic trajectories per context slot under a frozen policy.

    ``seeds`` gives one seed per slot. For t = T .. 1 every row of the batch
    takes one exploration step, records the log-density of its transition,
    and scores the one-step projection of the new state. ``shared_initial_noise``
    starts every trajectory of a slot from the same s_T (exploration then
    comes only from the step noise); the default draws independent initial
    noise per trajectory.
    """
    contexts = np.asarray(contexts, dtype=np.int64)
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    if contexts.ndim != 1 or contexts.shape[0] < 1 or len(seeds) != contexts.shape[0]:
        raise ValueError("need one seed per context slot")
    t_steps = schedule.num_steps
    b, d = contexts.shape[0], arch.state_dim
    n = b * group_size
    draws = [_draw_noise(s, group_size, t_steps, d, shared_initial_noise) for s in seeds]
    noises = np.stack([noise for _, noise in draws])
    row_noise = noises.reshape(n, t_steps, d)
    row_contexts = np.repeat(contexts, group_size)

    states = np.empty((n, t_steps + 1, d))
    step_vars = np.empty(t_steps)
    logps = np.empty((n, t_steps)) if schedule.a > 0 else None
    rewards = np.empty((n, t_steps))

    x = np.concatenate([init for init, _ in draws])
    states[:, 0] = x
    for j, t in enumerate(range(t_steps, 0, -1)):
        try:
            x, dist = flowcore.sde_step(
                arch, params_old, x, t / t_steps, schedule.dtau, schedule, row_noise[:, j], row_contexts
            )
        except flowcore.NonFiniteStep as exc:
            bad = ",".join(str(c) for c in np.unique(row_contexts[exc.rows]))
            raise RolloutError(f"step t={t} context={bad}: {exc}") from exc
        states[:, j + 1] = x
        step_vars[j] = dist.var
        if logps is not None:
            logps[:, j] = flowcore.transition_logpdf(x, dist)
        rewards[:, j] = instant_reward(arch, params_old, x, (t - 1) / t_steps, rm, row_contexts)

    shape = (b, group_size)
    return RolloutBatch(
        contexts=contexts,
        schedule=schedule,
        states=states.reshape(*shape, t_steps + 1, d),
        noises=noises,
        step_vars=step_vars,
        logp_old=None if logps is None else logps.reshape(*shape, t_steps),
        instant_rewards=rewards.reshape(*shape, t_steps),
        terminal_rewards=envsuite.reward(rm, x, row_contexts).reshape(shape),
    )


def dump_trajectories(batch: RolloutBatch, path) -> None:
    """Write one JSON-lines record per trajectory (debugging / oracle tests)."""
    with Path(path).open("w") as fh:
        for b, context in enumerate(batch.contexts.tolist()):
            for i in range(batch.group_size):
                record = {
                    "context": context,
                    "states": batch.states[b, i].tolist(),
                    "instant_rewards": batch.instant_rewards[b, i].tolist(),
                    "terminal_reward": float(batch.terminal_rewards[b, i]),
                    "logp_old": None if batch.logp_old is None else batch.logp_old[b, i].tolist(),
                }
                fh.write(json.dumps(record) + "\n")


def load_trajectory_dump(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
