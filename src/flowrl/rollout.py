"""Denoising-MDP executor: samples groups of stochastic trajectories under a
frozen policy and scores every step via one-step terminal projection.

A batch holds one group per context slot, stored as arrays: the states, the
log-densities of their transitions, the instant rewards and the policy's
network pass at every transition, which the first update epoch reuses. The
terminal reward is the last instant reward, because the projection at
tau = 0 is the identity. Each slot draws all its noise at once from one
generator keyed by the slot's seed, member by member, so a trajectory's
noise depends neither on the batch size nor on the other slots nor on the
group members after it, while every timestep advances all rows of the batch
at once. Each new state is checked once, as it is made; the rewards and
log-densities are computed after the loop, in one call each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diffnet, envsuite, flowcore
from .diffnet import Architecture
from .envsuite import TaskSpec
from .flowcore import NoiseSchedule


@dataclass
class RolloutBatch:
    """B groups of G trajectories, one group per context slot.

    Axes are slot, group member, timestep and state dimension. ``states``
    runs in generation order s_T .. s_0; ``instant_rewards`` holds R_T .. R_1
    (chronological). ``logp_old`` is None for deterministic (a = 0) rollouts,
    which have no transition density.

    ``phi`` and ``hs`` are the policy's network pass at every transition's
    (s_t, tau_t): the feature matrix and the ``diffnet.mlp`` layer outputs,
    ``hs[-1]`` the velocity. ``reshape(-1, width)`` of each gives the
    transitions in (slot, member, step) order as a view.
    """

    contexts: np.ndarray          # (B,)
    schedule: NoiseSchedule
    states: np.ndarray            # (B, G, T+1, D)
    logp_old: np.ndarray | None   # (B, G, T)
    instant_rewards: np.ndarray   # (B, G, T)
    phi: np.ndarray               # (B, G, T, input_dim)
    hs: list[np.ndarray]          # one (B, G, T, fan_out) per layer

    @property
    def terminal_rewards(self) -> np.ndarray:
        """(B, G) view of R_1, the reward of s_0: the projection at tau = 0
        is the identity."""
        return self.instant_rewards[..., -1]

    @property
    def group_size(self) -> int:
        return self.states.shape[1]

    @property
    def num_steps(self) -> int:
        return self.states.shape[2] - 1


def _draw_noise(seed, group_size: int, t_steps: int, d: int, shared_initial_noise: bool):
    """Initial states (G, D) and step noise (G, T, D) of one slot, from one
    (G, T+1, D) draw of the slot's generator: member i starts at
    ``draws[i, 0]`` (member 0's with ``shared_initial_noise``) and steps with
    ``draws[i, 1:]``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = rng.standard_normal((group_size, t_steps + 1, d))
    init = np.tile(draws[0, 0], (group_size, 1)) if shared_initial_noise else draws[:, 0]
    return init, draws[:, 1:]


def rollout_group(
    arch: Architecture,
    params_old: np.ndarray,
    contexts,
    group_size: int,
    schedule: NoiseSchedule,
    task: TaskSpec,
    seeds,
    shared_initial_noise: bool = False,
) -> RolloutBatch:
    """Sample G stochastic trajectories per context slot under a frozen policy.

    ``seeds`` gives one seed per slot, as SeedSequence entropy (an int or a
    tuple of ints). For t = T .. 1 every row of the batch takes one
    exploration step and keeps its step mean and the one-step projection of
    the new state. After the loop one ``envsuite.reward`` call scores all
    B * G * T projections and one ``transition_logpdf`` call gives all the
    transition log-densities. ``shared_initial_noise`` starts every
    trajectory of a slot from the same s_T (exploration then comes only from
    the step noise); the default draws independent initial noise per
    trajectory.

    Inputs are checked here, once, and each new state as it is made: a
    non-finite one raises ``flowcore.NonFiniteStep`` naming the step and the
    contexts of its rows. Each projection's velocity, taken at the new state
    and time, is also the one the next exploration step needs, so a rollout
    makes T network evaluations, one per transition; the last step's
    projection, at tau = 0, is the identity and needs none. Each step's
    features and layer outputs are written into time-major (T, B * G, width)
    buffers and stored, reordered once, as the batch's ``phi`` and ``hs``.
    """
    contexts = np.asarray(contexts, dtype=np.int64)
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    if contexts.ndim != 1 or contexts.shape[0] < 1 or len(seeds) != contexts.shape[0]:
        raise ValueError("need one seed per context slot")
    if arch.context_count > 0 and (contexts.min() < 0 or contexts.max() >= arch.context_count):
        raise ValueError("context index out of range")
    layers = diffnet.unpack(arch, params_old)
    t_steps = schedule.num_steps
    b, d = contexts.shape[0], arch.state_dim
    n = b * group_size
    draws = [_draw_noise(s, group_size, t_steps, d, shared_initial_noise) for s in seeds]
    row_noise = np.concatenate([noise for _, noise in draws])
    row_contexts = np.repeat(contexts, group_size)

    # time-major: step j's rows are one contiguous (n, .) block of each buffer
    states = np.empty((t_steps + 1, n, d))
    means = np.empty((t_steps, n, d))
    variances = np.empty(t_steps)
    projections = np.empty((t_steps, n, d))
    phi = np.empty((t_steps, n, arch.input_dim))
    hs = [h.reshape(t_steps, n, -1) for h in diffnet.layer_buffers(layers, t_steps * n)]

    x = states[0] = np.concatenate([init for init, _ in draws])
    phi[:] = diffnet.feature_matrix(arch, x, 1.0, row_contexts)
    v = diffnet.mlp(layers, phi[0], [h[0] for h in hs])
    for j, t in enumerate(range(t_steps, 0, -1)):
        x, means[j], variances[j] = flowcore.sde_update(x, v, t, schedule, row_noise[:, j])
        bad = ~np.isfinite(x).all(axis=1)
        if bad.any():
            names = ",".join(str(c) for c in np.unique(row_contexts[bad]))
            raise flowcore.NonFiniteStep(f"step t={t} context={names}: non-finite SDE state")
        states[j + 1] = x
        if t == 1:
            break
        tau_next = (t - 1) / t_steps
        diffnet.write_state_time(arch, phi[j + 1], x, tau_next)
        v = diffnet.mlp(layers, phi[j + 1], [h[j + 1] for h in hs])
        projections[j] = flowcore.euler_update(x, v, tau_next)
    projections[-1] = x
    rewards = envsuite.reward(task, projections.reshape(-1, d), np.tile(row_contexts, t_steps))
    logps = None
    if schedule.a > 0:
        logps = flowcore.transition_logpdf(
            states[1:].reshape(-1, d), means.reshape(-1, d), np.repeat(variances, n)
        )

    def batch_major(a):
        """A time-major (T', n, ...) array as a contiguous (B, G, T', ...) copy."""
        return np.ascontiguousarray(a.swapaxes(0, 1)).reshape(b, group_size, *a.shape[:1], *a.shape[2:])

    return RolloutBatch(
        contexts=contexts,
        schedule=schedule,
        states=batch_major(states),
        logp_old=None if logps is None else batch_major(logps.reshape(t_steps, n)),
        instant_rewards=batch_major(rewards.reshape(t_steps, n)),
        phi=batch_major(phi),
        hs=[batch_major(h) for h in hs],
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
