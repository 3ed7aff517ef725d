import time

import numpy as np
import pytest

from flowrl import diffnet, envsuite, flowcore, rollout, trainer

from _oracles import reference_euler_states


@pytest.fixture(scope="module")
def setup():
    task = envsuite.TaskSpec()
    arch = diffnet.for_task(task.state_dim, task.context_count, hidden_dims=(16,))
    params = trainer.pretrain(arch, task, steps=300, seed=3, batch_size=64)
    return task, arch, params


def make_group(setup, a=0.7, seed=(0, 1, 2), group_size=8, shared=False, steps=10):
    """A one-slot batch: one group of trajectories for context 2."""
    task, arch, params = setup
    sched = flowcore.NoiseSchedule(a=a, num_steps=steps)
    return rollout.rollout_group(
        arch, params, contexts=[2], group_size=group_size, schedule=sched, task=task,
        seeds=[seed], shared_initial_noise=shared,
    )


class TestRolloutGroup:
    def test_fixed_seed_bit_identical(self, setup):
        g1 = make_group(setup)
        g2 = make_group(setup)
        assert np.array_equal(g1.states, g2.states)
        assert np.array_equal(g1.logp_old, g2.logp_old)
        assert np.array_equal(g1.instant_rewards, g2.instant_rewards)
        assert np.array_equal(g1.terminal_rewards, g2.terminal_rewards)

    def test_shapes_and_finiteness(self, setup):
        g = make_group(setup)
        assert g.group_size == 8
        assert g.num_steps == 10
        assert g.states.shape == (1, 8, 11, 2)
        assert g.logp_old.shape == (1, 8, 10)
        assert np.all(np.isfinite(g.states))

    def test_group_size_below_two_rejected(self, setup):
        with pytest.raises(ValueError):
            make_group(setup, group_size=1)

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
        assert g.logp_old is None
        assert np.all(g.step_vars == 0.0)

    def test_same_seed_sequences_reused_give_the_same_batch(self, setup):
        # spawning advances a SeedSequence; the rollout must not advance the caller's
        task, arch, params = setup
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        seeds = [np.random.SeedSequence((0, 1, 2)), np.random.SeedSequence((0, 1, 3))]
        first = rollout.rollout_group(arch, params, [2, 5], 4, sched, task, seeds)
        again = rollout.rollout_group(arch, params, [2, 5], 4, sched, task, seeds)
        assert np.array_equal(first.noises, again.noises)
        assert np.array_equal(first.states, again.states)

    def test_context_out_of_range_rejected_before_drawing(self, setup, monkeypatch):
        task, arch, params = setup

        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn before the contexts were checked")

        monkeypatch.setattr(rollout, "_draw_noise", no_draws)
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        for contexts in ([0, arch.context_count], [-1]):
            with pytest.raises(ValueError, match="context index out of range"):
                rollout.rollout_group(arch, params, contexts, 4, sched, task, seeds=[0] * len(contexts))

    def test_per_trajectory_streams_do_not_depend_on_group_size(self, setup):
        small = make_group(setup, group_size=4)
        large = make_group(setup, group_size=8)
        for i in range(4):
            assert np.array_equal(small.states[0, i], large.states[0, i])

    def test_completes_within_measured_budget(self, setup):
        make_group(setup)  # warm caches before timing
        timings = []
        for _ in range(3):
            t0 = time.perf_counter()
            make_group(setup)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 0.050


class TestStoredDensities:
    def test_logp_matches_recomputation_from_stored_distributions(self, setup):
        # the step means are recomputed one trajectory at a time, the stored
        # variances are used as they are
        _, arch, params = setup
        g = make_group(setup)
        for states, logp in zip(g.states[0], g.logp_old[0]):
            for j, t in enumerate(range(g.num_steps, 0, -1)):
                mean = flowcore.step_distribution(
                    arch, params, states[j], t / g.num_steps, g.schedule.dtau, g.schedule, 2
                ).mean
                dist = flowcore.StepDistribution(mean=mean, var=float(g.step_vars[j]))
                recomputed = flowcore.transition_logpdf(states[j + 1], dist)
                assert abs(recomputed - logp[j]) <= 1e-12

    def test_logp_finite_whenever_noise_active(self, setup):
        g = make_group(setup, a=0.3)
        assert np.all(np.isfinite(g.logp_old))


class TestInstantRewards:
    def test_final_step_equals_terminal_reward_exactly(self, setup):
        g = make_group(setup)
        assert np.all(g.instant_rewards[..., -1] == g.terminal_rewards)

    def test_rewards_within_unit_interval(self, setup):
        g = make_group(setup)
        r = g.instant_rewards
        assert np.all(r >= 0.0) and np.all(r <= 1.0)

    def test_constant_field_matches_hand_projection(self, setup):
        # every instant reward scores s_next - tau_next * c for the constant field c
        task, _, _ = setup
        arch = diffnet.for_task(2, task.context_count, hidden_dims=())
        c = np.array([0.5, -0.25])
        params = np.concatenate([np.zeros((2, arch.input_dim)).ravel(), c])
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=5)
        g = rollout.rollout_group(arch, params, [1], 3, sched, task, seeds=[4])
        for j, tau_next in enumerate((4 / 5, 3 / 5, 2 / 5, 1 / 5, 0.0)):
            s_next = g.states[0, :, j + 1]
            got = g.instant_rewards[0, :, j]
            want = envsuite.reward(task, s_next - tau_next * c, 1)
            assert np.array_equal(got, want)

    def test_frozen_dynamics_give_constant_instant_rewards(self, setup):
        # zero field and zero noise: the state never moves, so every
        # projection scores the same point
        task, arch, _ = setup
        params = np.zeros(diffnet.param_count(arch))
        sched = flowcore.NoiseSchedule(a=0.0, num_steps=10)
        g = rollout.rollout_group(arch, params, [1], 4, sched, task, seeds=[9])
        for r in g.instant_rewards[0]:
            assert np.all(r == r[0])


class TestTrajectoryValidation:
    def test_non_finite_states_rejected(self):
        bad = np.full((1, 1, 11, 2), np.nan)
        with pytest.raises(ValueError):
            rollout.RolloutBatch(
                contexts=np.zeros(1, dtype=np.int64),
                schedule=flowcore.NoiseSchedule(),
                states=bad,
                noises=np.zeros((1, 1, 10, 2)),
                step_vars=np.ones(10),
                logp_old=np.zeros((1, 1, 10)),
                instant_rewards=np.zeros((1, 1, 10)),
                terminal_rewards=np.zeros((1, 1)),
            )

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverging_field_aborts_with_diagnostic(self):
        # a near-float-max constant velocity overflows the drift correction
        # on the first step
        arch = diffnet.for_task(1, 1, hidden_dims=())
        params = np.concatenate([np.zeros(arch.input_dim), [1.7e308]])
        task = envsuite.TaskSpec(
            num_modes=1, context_count=1, state_dim=1, mode_centers=[[0.0]]
        )
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        with pytest.raises(rollout.RolloutError, match="t=10 context=0"):
            rollout.rollout_group(arch, params, [0], 2, sched, task, seeds=[0])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diagnostic_names_only_the_diverging_contexts(self):
        # a linear field whose velocity overflows only for context 1: the
        # one-hot context feature of context 1 carries a near-float-max weight
        arch = diffnet.for_task(1, 3, hidden_dims=())
        weights = np.zeros((1, arch.input_dim))
        weights[0, 1 + diffnet.TIME_FEATURES + 1] = 1.7e308
        params = np.concatenate([weights.ravel(), [0.0]])
        task = envsuite.TaskSpec(
            num_modes=3, context_count=3, state_dim=1, mode_centers=[[0.0], [1.0], [2.0]]
        )
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        with pytest.raises(rollout.RolloutError, match="t=10 context=1:"):
            rollout.rollout_group(
                arch, params, [0, 1, 2, 1], 2, sched, task, seeds=[0, 1, 2, 3]
            )


class TestTrajectoryDump:
    def test_jsonl_round_trip(self, setup, tmp_path):
        g = make_group(setup)
        path = tmp_path / "trajectories.jsonl"
        rollout.dump_trajectories(g, path)
        rows = rollout.load_trajectory_dump(path)
        assert len(rows) == g.group_size
        for i, row in enumerate(rows):
            assert row["context"] == g.contexts[0]
            assert row["terminal_reward"] == g.terminal_rewards[0, i]
            assert np.array_equal(np.array(row["states"]), g.states[0, i])
            assert np.array_equal(np.array(row["instant_rewards"]), g.instant_rewards[0, i])
