"""The batched training step against the per-group, per-timestep oracle.

The batched path sums rows in a different order (BLAS blocks over all rows of
a batch), so values agree to a tolerance fixed from float64 rounding; the
drawn noise is the same draw and must agree bit for bit.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from flowrl import diffnet, envsuite, flowcore, rollout, trainer

from _oracles import (
    reference_advantages, reference_means_at, reference_rollout_group, reference_surrogate, surrogate_at,
)

TOL = 1e-12
TASK = envsuite.TaskSpec()
ARCH = diffnet.for_task(TASK.state_dim, TASK.context_count, hidden_dims=(8,))


def close(got, want, tol=TOL):
    """Max abs error within tol, scaled up by the reference's magnitude above 1."""
    want = np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(np.asarray(got) - want))) <= tol * scale


@given(
    seed=st.integers(0, 2**16),
    b=st.integers(1, 4),
    g=st.integers(2, 8),
    t=st.integers(2, 10),
    preset=st.sampled_from(("vgpo", "flow-grpo", "tcrm-only", "adae-only")),
    shared=st.booleans(),
)
def test_batched_step_matches_per_group_oracle(seed, b, g, t, preset, shared):
    rng = np.random.default_rng(seed)
    theta_old = diffnet.init_params(ARCH, seed)
    theta = theta_old + 0.05 * rng.standard_normal(theta_old.size)
    theta_ref = diffnet.init_params(ARCH, seed + 1)
    schedule = flowcore.NoiseSchedule(a=0.7, num_steps=t)
    contexts = rng.integers(0, TASK.context_count, b)
    # entropy tuples, as the trainer passes them: each side builds its own generators
    seeds = [(seed, trainer.STREAM_ROLLOUT, 1, slot, int(c)) for slot, c in enumerate(contexts)]

    batch = rollout.rollout_group(ARCH, theta_old, contexts, g, schedule, seeds, shared)
    rewards = trainer.instant_rewards(TASK, batch, batch.hs[-1])
    groups = [
        reference_rollout_group(ARCH, theta_old, int(c), g, schedule, TASK, s, shared)
        for c, s in zip(contexts, seeds)
    ]
    for slot, ref in enumerate(groups):
        init, noise = rollout._draw_noise(seeds[slot], g, t, ARCH.state_dim, shared)
        assert np.array_equal(noise, ref["noises"])
        assert np.array_equal(init, ref["states"][:, 0])
        assert np.array_equal(batch.states[slot, :, 0], init)
        assert close(batch.states[slot], ref["states"])
        assert close(batch.logp_old[slot], ref["logp_old"])
        assert close(rewards[slot], ref["instant_rewards"])
        assert close(rewards[slot, :, -1], ref["terminal_rewards"])

    config = trainer.apply_preset(
        trainer.TrainConfig(task=TASK, hidden_dims=(8,), group_size=g, sampling_steps=t), preset
    )
    advantages = trainer.compute_advantages(rewards, config)
    for slot in range(b):
        want = reference_advantages(rewards[slot], rewards[slot, :, -1], config)
        assert close(advantages[slot], want)

    ref_mean = reference_means_at(ARCH, theta_ref, batch)
    res = surrogate_at(ARCH, theta, batch, advantages, ref_mean, 0.2, 0.01)
    per_group = [
        reference_surrogate(
            ARCH, theta, theta_ref, batch.states[slot], batch.logp_old[slot], advantages[slot],
            int(contexts[slot]), schedule, 0.2, 0.01,
        )
        for slot in range(b)
    ]
    assert close(res.value, np.mean([value for value, _ in per_group]))
    assert close(res.grad, np.mean([grad for _, grad in per_group], axis=0))
