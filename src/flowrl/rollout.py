"""Denoising-MDP executor: samples groups of stochastic trajectories under a frozen policy.

A batch holds one group per context slot, stored as arrays: the states, the
log-densities of their transitions and the policy's network pass at every
transition, whose velocity rows ``trainer.instant_rewards`` projects and
which the first update epoch reuses. Each slot draws all its noise at once
from one generator keyed by the slot's seed, member by member, so a
trajectory's noise depends neither on the batch size nor on the other slots
nor on the group members after it, while every timestep advances all rows
of the batch at once. Each state is checked as it is made; the
log-densities are computed after the loop, in one call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diffnet, flowcore
from .diffnet import Architecture
from .flowcore import NoiseSchedule


@dataclass
class RolloutBatch:
    """B groups of G trajectories, one group per context slot.

    Axes are slot, group member, timestep and state dimension. ``states``
    runs in generation order s_T .. s_0. ``logp_old`` is None for
    deterministic (a = 0) rollouts, which have no transition density.

    ``phi`` and ``hs`` are the policy's network pass at every transition's
    (s_t, tau_t): the feature matrix and the ``diffnet.mlp`` layer outputs,
    ``hs[-1]`` the velocity. ``reshape(-1, width)`` of each gives the
    transitions in (slot, member, step) order as a view.

    The arrays are those of the ``RolloutBuffers`` the batch was made on,
    whose docstring says how long they live: ``trainer.update_policy``
    spends ``hs``, and the next ``rollout_group`` call on the same buffers
    overwrites the rest.
    """

    contexts: np.ndarray          # (B,)
    schedule: NoiseSchedule
    states: np.ndarray            # (B, G, T+1, D)
    logp_old: np.ndarray | None   # (B, G, T)
    phi: np.ndarray               # (B, G, T, input_dim)
    hs: list[np.ndarray]          # one (B, G, T, fan_out) per layer

    @property
    def group_size(self) -> int:
        return self.states.shape[1]

    @property
    def num_steps(self) -> int:
        return self.states.shape[2] - 1


@dataclass
class RolloutBuffers:
    """Every array ``rollout_group`` writes one (B, G, T) batch into, made
    once by ``make_buffers``: the only per-transition arrays a training
    step keeps.

    The time-major arrays hold the loop's work, step j's B * G rows one
    contiguous block of each; ``batch`` holds the returned batch's
    batch-major arrays, keyed by its field names. A training step spends
    them in this order:

    1. ``rollout_group`` fills the time-major arrays, then copies them,
       reordered, into ``batch``; they hold nothing that is read again.
    2. ``trainer.instant_rewards`` reads the velocity rows of the batch's ``hs``.
    3. ``trainer.reference_means`` runs the reference pass into the
       time-major ``hs``; every ``diffnet.backward`` of the update writes
       its deltas over them.
    4. The first ``trainer.update_policy`` epoch reads the rollout's pass
       in the batch's ``hs``, and its ``backward`` spends that pass, as
       ``diffnet.backward`` states; each later epoch first runs its own.

    The rest of the batch is only read, until the next ``rollout_group``
    call on the same buffers overwrites every array: a caller that keeps a
    batch past that call keeps a copy.
    """

    states: np.ndarray          # (T+1, B*G, D)
    means: np.ndarray           # (T, B*G, D)
    phi: np.ndarray             # (T, B*G, input_dim)
    hs: list[np.ndarray]        # one (T, B*G, fan_out) per layer
    batch: dict                 # states, logp_old, phi, hs: (B, G, T', ...)


def make_buffers(arch: Architecture, batch_contexts: int, group_size: int, num_steps: int) -> RolloutBuffers:
    """``RolloutBuffers`` for batches of ``batch_contexts`` slots of
    ``group_size`` trajectories with ``num_steps`` transitions each."""
    b, g, t, d = batch_contexts, group_size, num_steps, arch.state_dim
    n = b * g
    widths = arch.layer_dims[1:]
    return RolloutBuffers(
        states=np.empty((t + 1, n, d)),
        means=np.empty((t, n, d)),
        phi=np.empty((t, n, arch.input_dim)),
        hs=[np.empty((t, n, w)) for w in widths],
        batch={
            "states": np.empty((b, g, t + 1, d)),
            "logp_old": np.empty((b, g, t)),
            "phi": np.empty((b, g, t, arch.input_dim)),
            "hs": [np.empty((b, g, t, w)) for w in widths],
        },
    )


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
    seeds,
    shared_initial_noise: bool = False,
    buffers: RolloutBuffers | None = None,
) -> RolloutBatch:
    """Sample G stochastic trajectories per context slot under a frozen policy.

    ``seeds`` gives one seed per slot, as SeedSequence entropy (an int or a
    tuple of ints). For t = T .. 1 one network pass at every row's (s_t, t/T)
    gives the velocity v of the exploration step to s_{t-1}, whose mean is
    kept. After the loop one ``transition_logpdf`` call, with the step
    variance as a (T, 1) column, gives every log-density.
    ``shared_initial_noise`` starts every trajectory of a slot from the same
    s_T (exploration then comes only from the step noise).

    Each new state is checked as it is made: a non-finite one raises
    ``flowcore.NonFiniteStep`` naming the step and the contexts of its rows.
    The inputs run unchecked: ``trainer.rollout_batch`` draws the contexts with
    ``envsuite.sample_context`` and passes the buffers made for the config's
    (B, G, T); too few or too many seeds fail at the first buffer write.

    Everything is written into ``buffers``, the caller's ``RolloutBuffers``
    for this (B, G, T) shape, or into ones made for this call; their
    docstring says how long the returned batch lives.
    """
    contexts = np.asarray(contexts, dtype=np.int64)
    layers = diffnet.unpack(arch, params_old)
    t_steps = schedule.num_steps
    b, d = contexts.shape[0], arch.state_dim
    n = b * group_size
    if buffers is None:
        buffers = make_buffers(arch, b, group_size, t_steps)
    draws = [_draw_noise(s, group_size, t_steps, d, shared_initial_noise) for s in seeds]
    row_noise = np.concatenate([noise for _, noise in draws])
    row_contexts = np.repeat(contexts, group_size)

    states, means, phi, hs = buffers.states, buffers.means, buffers.phi, buffers.hs
    diffnet.write_context(arch, phi.reshape(-1, arch.input_dim), np.tile(row_contexts, t_steps))
    # out= takes only the exact (B*G, D) shape: one seed per slot
    x = np.concatenate([init for init, _ in draws], out=states[0])
    for j, t in enumerate(range(t_steps, 0, -1)):
        diffnet.write_state_time(arch, phi[j], x, diffnet.time_features(t / t_steps))
        v = diffnet.mlp(layers, phi[j], [h[j] for h in hs])
        states[j + 1], means[j] = flowcore.sde_update(x, v, t, schedule, row_noise[:, j])
        flowcore.check_states(states[j + 1], t, row_contexts, "SDE")
        x = states[j + 1]
    logps = None
    if schedule.a > 0:
        logps = flowcore.transition_logpdf(states[1:], means, schedule.table[2][:, None])

    def batch_major(a, out):
        """Copy a time-major (T', n, ...) array into its (B, G, T', ...) buffer."""
        np.copyto(out.reshape(n, *out.shape[2:]), a.swapaxes(0, 1))
        return out

    out = buffers.batch
    return RolloutBatch(
        contexts=contexts,
        schedule=schedule,
        states=batch_major(states, out["states"]),
        logp_old=None if logps is None else batch_major(logps, out["logp_old"]),
        phi=batch_major(phi, out["phi"]),
        hs=[batch_major(h, o) for h, o in zip(hs, out["hs"])],
    )


def dump_trajectories(batch: RolloutBatch, rewards: np.ndarray, path) -> None:
    """Write one JSON-lines record per trajectory (debugging / oracle tests),
    with its row of the (B, G, T) ``trainer.instant_rewards`` table."""
    with Path(path).open("w") as fh:
        for b, context in enumerate(batch.contexts.tolist()):
            for i in range(batch.group_size):
                record = {
                    "context": context,
                    "states": batch.states[b, i].tolist(),
                    "instant_rewards": rewards[b, i].tolist(),
                    "terminal_reward": float(rewards[b, i, -1]),
                    "logp_old": None if batch.logp_old is None else batch.logp_old[b, i].tolist(),
                }
                fh.write(json.dumps(record) + "\n")
