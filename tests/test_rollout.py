import time

import numpy as np
import pytest

from flowrl import diffnet, envsuite, flowcore, rollout, trainer

from _oracles import load_trajectory_dump, reference_euler_states, rollout_logps


@pytest.fixture(scope="module")
def setup():
    config = trainer.TrainConfig(hidden_dims=(16,), pretrain_steps=300, seed=3, pretrain_batch=64)
    return config.task, config.architecture(), trainer.pretrain(config)


def make_group(setup, a=0.7, seed=(0, 1, 2), group_size=8, shared=False, steps=10):
    """A one-slot batch: one group of trajectories for context 2."""
    _, arch, params = setup
    sched = flowcore.NoiseSchedule(a=a, num_steps=steps)
    return rollout.rollout_group(
        arch, params, contexts=[2], group_size=group_size, schedule=sched, seeds=[seed], shared_initial_noise=shared,
    )


def rewards_of(setup, g):
    """The batch's dense rewards, projected with the rollout's own velocities."""
    return trainer.instant_rewards(setup[0], g, g.hs[-1])


class TestRolloutGroup:
    def test_fixed_seed_bit_identical(self, setup):
        g1 = make_group(setup)
        g2 = make_group(setup)
        assert np.array_equal(g1.states, g2.states)
        assert np.array_equal(rollout_logps(g1), rollout_logps(g2))
        r1, r2 = rewards_of(setup, g1), rewards_of(setup, g2)
        assert np.array_equal(r1, r2)
        assert np.array_equal(r1[..., -1], r2[..., -1])

    def test_shapes_and_finiteness(self, setup):
        g = make_group(setup)
        assert g.group_size == 8
        assert g.states.shape == (1, 8, 11, 2)
        assert all(h.shape[:3] == (1, 8, 10) for h in g.hs)
        assert rollout_logps(g).shape == (1, 8, 10)
        assert np.all(np.isfinite(g.states))

    def test_one_reward_call_per_rollout(self, setup, count_calls):
        # the sampler scores nothing; the batch's rewards take one call
        calls = count_calls(envsuite, "reward")
        g = make_group(setup)
        assert calls == []
        rewards_of(setup, g)
        assert len(calls) == 1

    def test_deterministic_dynamics_shared_noise_collapses_group(self, setup):
        g = make_group(setup, a=0.0, shared=True)
        base = g.states[0, 0]
        for states in g.states[0, 1:]:
            assert np.array_equal(states, base)

    def test_deterministic_dynamics_differ_only_via_initial_state(self, setup):
        # with a = 0 every trajectory is the Euler flow of its own s_T: the
        # whole group re-integrated by the Euler oracle reproduces the states
        _, arch, params = setup
        g = make_group(setup, a=0.0, shared=False)
        states = g.states[0]
        assert np.array_equal(reference_euler_states(arch, params, states[:, 0], 2, 10), states)

    def test_same_seed_sequences_reused_give_the_same_batch(self, setup):
        # seeds are entropy: each call builds fresh generators from them
        _, arch, params = setup
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        seeds = [(0, 1, 2), (0, 1, 3)]
        first = rollout.rollout_group(arch, params, [2, 5], 4, sched, seeds)
        again = rollout.rollout_group(arch, params, [2, 5], 4, sched, seeds)
        for seed in seeds:
            draws = [rollout._draw_noise(seed, 4, 10, arch.state_dim, False) for _ in range(2)]
            assert np.array_equal(draws[0][0], draws[1][0])
            assert np.array_equal(draws[0][1], draws[1][1])
        assert np.array_equal(first.states, again.states)

    def test_a_seed_count_other_than_the_slot_count_is_rejected(self, setup):
        # no check of its own: the first write into the buffers takes only
        # one initial state per row of the (B * G) batch
        _, arch, params = setup
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=6)
        for seeds in ([0], [0, 1, 2]):
            for buffers in (None, rollout.make_buffers(arch, 2, 4, 6)):
                with pytest.raises(ValueError):
                    rollout.rollout_group(arch, params, [2, 5], 4, sched, seeds, buffers=buffers)

    def test_per_trajectory_streams_do_not_depend_on_group_size(self, setup):
        small = make_group(setup, group_size=4)
        large = make_group(setup, group_size=8)
        for i in range(4):
            assert np.array_equal(small.states[0, i], large.states[0, i])

    @pytest.mark.parametrize("shared", [False, True])
    def test_one_generator_per_slot(self, setup, monkeypatch, shared):
        _, arch, params = setup
        made = []
        real_default_rng = np.random.default_rng

        def counting_default_rng(*args, **kwargs):
            made.append(args)
            return real_default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        rollout.rollout_group(arch, params, [2, 5, 2], 8, sched, [(0, 1), (0, 2), (0, 3)], shared)
        assert len(made) == 3

    def test_slot_noise_does_not_depend_on_the_batch(self, setup):
        # BLAS may sum the rows of a larger batch in another order, moving
        # the last bits of the states; the drawn initial states are exact
        _, arch, params = setup
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        seeds = [(0, 1, 0, 4), (0, 1, 1, 2), (0, 1, 2, 7)]
        batch = rollout.rollout_group(arch, params, [4, 2, 7], 8, sched, seeds)
        alone = rollout.rollout_group(arch, params, [2], 8, sched, seeds[1:2])
        assert np.array_equal(batch.states[1, :, 0], alone.states[0, :, 0])
        assert np.max(np.abs(batch.states[1] - alone.states[0])) <= 1e-12

    @pytest.mark.parametrize("shared", [False, True])
    def test_batches_on_reused_buffers_equal_batches_on_fresh_ones(self, setup, shared):
        # three batches of other contexts and seeds written over one set of
        # buffers, each against the same call on buffers of its own
        _, arch, params = setup
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=6)
        buffers = rollout.make_buffers(arch, 2, 4, 6)
        for i, contexts in enumerate(([2, 5], [0, 0], [7, 1])):
            seeds = [(i, 0), (i, 1)]
            got = rollout.rollout_group(arch, params, contexts, 4, sched, seeds, shared, buffers)
            want = rollout.rollout_group(arch, params, contexts, 4, sched, seeds, shared)
            assert got.states is buffers.batch["states"] and got.hs[-1] is buffers.batch["hs"][-1]
            for name in ("contexts", "states", "phi"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert all(np.array_equal(h, w) for h, w in zip(got.hs, want.hs, strict=True))

    @pytest.mark.parametrize("steps", [2, 10])
    def test_one_network_evaluation_per_timestep(self, setup, monkeypatch, steps):
        # the velocity at s_T drives the first step, each later one serves a
        # projection and the next step; the last projection, at tau = 0, is
        # the identity and needs none
        calls = []
        real_mlp = diffnet.mlp

        def counting_mlp(*args, **kwargs):
            calls.append(args[1].shape[0])
            return real_mlp(*args, **kwargs)

        monkeypatch.setattr(diffnet, "mlp", counting_mlp)
        make_group(setup, steps=steps)
        assert calls == [8] * steps

    def test_completes_within_measured_budget(self, setup):
        make_group(setup)  # warm caches before timing
        timings = []
        for _ in range(3):
            t0 = time.perf_counter()
            make_group(setup)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 0.050


class TestStepLogps:
    def test_logp_matches_recomputation_from_stored_distributions(self, setup):
        # the densities of the rollout's own pass: the step means are
        # recomputed one trajectory at a time, the variances are
        # sigma(tau)^2 * dtau of the batch's schedule
        _, arch, params = setup
        g = make_group(setup)
        steps = g.schedule.num_steps
        for states, logp in zip(g.states[0], rollout_logps(g)[0]):
            for j, t in enumerate(range(steps, 0, -1)):
                tau = t / steps
                mean, _ = flowcore.step_distribution(arch, params, states[j:j + 1], tau, g.schedule, 2)
                var = flowcore.sigma(tau, g.schedule) ** 2 * g.schedule.dtau
                recomputed = flowcore.transition_logpdf(states[j + 1:j + 2], mean, var)[0]
                assert abs(recomputed - logp[j]) <= 1e-12

    def test_logp_finite_whenever_noise_active(self, setup):
        g = make_group(setup, a=0.3)
        assert np.all(np.isfinite(rollout_logps(g)))


class TestInstantRewards:
    def test_final_step_equals_terminal_reward_exactly(self, setup):
        # scored apart from the rollout: the projection at tau = 0 is the identity
        task, _, _ = setup
        g = make_group(setup)
        assert np.array_equal(rewards_of(setup, g)[0, :, -1], envsuite.reward(task, g.states[0, :, -1], 2))

    def test_rewards_within_unit_interval(self, setup):
        r = rewards_of(setup, make_group(setup))
        assert np.all(r >= 0.0) and np.all(r <= 1.0)

    def test_constant_field_matches_hand_projection(self, setup):
        # every instant reward scores s_next - tau_next * c for the constant field c
        task, _, _ = setup
        arch = diffnet.for_task(2, task.context_count, hidden_dims=())
        c = np.array([0.5, -0.25])
        params = np.concatenate([np.zeros((2, arch.input_dim)).ravel(), c])
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=5)
        g = rollout.rollout_group(arch, params, [1], 3, sched, seeds=[4])
        rewards = trainer.instant_rewards(task, g, g.hs[-1])
        for j, tau_next in enumerate((4 / 5, 3 / 5, 2 / 5, 1 / 5, 0.0)):
            s_next = g.states[0, :, j + 1]
            got = rewards[0, :, j]
            want = envsuite.reward(task, s_next - tau_next * c, 1)
            assert np.array_equal(got, want)

    def test_frozen_dynamics_give_constant_instant_rewards(self, setup):
        # zero field and zero noise: the state never moves, so every
        # projection scores the same point
        task, arch, _ = setup
        params = np.zeros(diffnet.param_count(arch))
        sched = flowcore.NoiseSchedule(a=0.0, num_steps=10)
        g = rollout.rollout_group(arch, params, [1], 4, sched, seeds=[9])
        for r in trainer.instant_rewards(task, g, g.hs[-1])[0]:
            assert np.all(r == r[0])


class TestTrajectoryValidation:
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverging_field_aborts_with_diagnostic(self):
        # a near-float-max constant velocity overflows the drift correction
        # on the first step
        arch = diffnet.for_task(1, 1, hidden_dims=())
        params = np.concatenate([np.zeros(arch.input_dim), [1.7e308]])
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        with pytest.raises(flowcore.NonFiniteStep, match="t=10 context=0"):
            rollout.rollout_group(arch, params, [0], 2, sched, seeds=[0])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diagnostic_names_only_the_diverging_contexts(self):
        # a linear field whose velocity overflows only for context 1: the
        # one-hot context feature of context 1 carries a near-float-max weight
        arch = diffnet.for_task(1, 3, hidden_dims=())
        weights = np.zeros((1, arch.input_dim))
        weights[0, 1 + diffnet.TIME_FEATURES + 1] = 1.7e308
        params = np.concatenate([weights.ravel(), [0.0]])
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        with pytest.raises(flowcore.NonFiniteStep, match="t=10 context=1:"):
            rollout.rollout_group(
                arch, params, [0, 1, 2, 1], 2, sched, seeds=[0, 1, 2, 3]
            )

    def test_non_finite_projection_aborts_with_diagnostic(self, setup, count_calls):
        # a NaN velocity at the state step t=8 made (column 3) in slot 1's
        # rows, and at a later state in slot 0's, while every state stays
        # finite: the first bad projection in generation order stops the
        # rewards before the reward call, naming that step and slot 1's context
        task, arch, params = setup
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        g = rollout.rollout_group(arch, params, [2, 5], 4, sched, seeds=[0, 1])
        velocity = g.hs[-1].copy()
        velocity[1, :, 3] = np.nan
        velocity[0, :, 6] = np.nan
        calls = count_calls(envsuite, "reward")
        with pytest.raises(flowcore.NonFiniteStep, match=r"^step t=8 context=5: non-finite projected state$"):
            trainer.instant_rewards(task, g, velocity)
        assert np.isfinite(g.states).all()
        assert calls == []


class TestTrajectoryDump:
    def test_jsonl_round_trip(self, setup, tmp_path):
        g = make_group(setup)
        rewards, logps = rewards_of(setup, g), rollout_logps(g)
        path = tmp_path / "trajectories.jsonl"
        rollout.dump_trajectories(g, rewards, logps, path)
        rows = load_trajectory_dump(path)
        assert len(rows) == g.group_size
        for i, row in enumerate(rows):
            assert row["context"] == g.contexts[0]
            assert row["terminal_reward"] == rewards[0, i, -1]
            assert np.array_equal(np.array(row["states"]), g.states[0, i])
            assert np.array_equal(np.array(row["instant_rewards"]), rewards[0, i])
            assert np.array_equal(np.array(row["logp_old"]), logps[0, i])
