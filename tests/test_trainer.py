import copy
import math
import re
import tracemalloc
import typing
from dataclasses import replace

import numpy as np
import pytest

from flowrl import advantage as adv
from flowrl import diffnet, envsuite, flowcore, rollout, trainer

from _oracles import (
    central_difference,
    fm_kernel_loss_and_grad,
    grpo_advantages,
    max_rel_error,
    reference_evaluate,
    reference_means_at,
    reference_pretrain,
    reference_velocity_at,
    surrogate_at,
)

SMALL_TASK = envsuite.TaskSpec(
    num_modes=2, radius=1.5, mode_var=0.09, context_count=2, state_dim=2,
    mode_centers=[[1.5, 0.0], [-1.5, 0.0]],
)

# tasks on which an evaluation's samples are moved far from every mode
FAR_TASKS = {
    "far-mode-preference": SMALL_TASK,
    "far-half-plane-8d": envsuite.TaskSpec("half-plane", state_dim=8, context_count=2),
}


def small_config(**overrides):
    defaults = dict(
        task=SMALL_TASK,
        hidden_dims=(8,),
        group_size=4,
        sampling_steps=5,
        batch_contexts=2,
        pretrain_steps=200,
        pretrain_batch=64,
        eval_samples=32,
        eval_every=5,
        train_steps=10,
        seed=1,
    )
    defaults.update(overrides)
    return trainer.TrainConfig(**defaults)


@pytest.fixture(scope="module")
def pretrained():
    """Parameters pretrained by small_config()'s recipe; the presets and the
    overrides used below leave that recipe unchanged."""
    return trainer.pretrain(small_config())


@pytest.fixture(scope="module")
def tiny_setup(pretrained):
    """Tiny pretrained policy plus one rollout batch, shared across tests."""
    cfg = small_config()
    state = trainer.init_state(cfg, pretrained)
    batch = trainer.rollout_batch(state, step_index=1)
    return cfg, state, batch


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = trainer.TrainConfig()
        assert cfg.tcrm_enabled
        assert cfg.k == 0.5

    def test_flow_grpo_forces_tcrm_off(self):
        cfg = trainer.apply_preset(trainer.TrainConfig(tcrm_enabled=True, k=0.5), "flow-grpo")
        assert cfg.tcrm_enabled is False and cfg.k == 0.0

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            trainer.TrainConfig(gamma=1.5)
        with pytest.raises(ValueError):
            trainer.TrainConfig(eps_clip=0.0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(beta_kl=-0.01)
        with pytest.raises(ValueError):
            trainer.TrainConfig(k=-0.1)
        # the advantage formulas run unchecked on these fields
        for bad in ({"gamma": 1.0}, {"gamma": -0.1}, {"group_size": 1}, {"eps_std": 0.0}, {"eps_mean": 0.0}):
            with pytest.raises(ValueError):
                trainer.TrainConfig(**bad)
        # configs built in Python meet no parser: every float field of both
        # classes rejects NaN and +-inf itself, naming the field
        for cls in (trainer.TrainConfig, envsuite.TaskSpec):
            for name, hint in typing.get_type_hints(cls).items():
                if hint is float:
                    for value in (math.nan, math.inf, -math.inf):
                        with pytest.raises(ValueError, match=name):
                            cls(**{name: value})

    def test_presets(self):
        base = trainer.TrainConfig()
        grid = {name: trainer.apply_preset(base, name) for name in
                ("vgpo", "flow-grpo", "tcrm-only", "adae-only")}
        assert grid["vgpo"].tcrm_enabled and grid["vgpo"].k > 0
        assert not grid["flow-grpo"].tcrm_enabled and grid["flow-grpo"].k == 0.0
        assert grid["tcrm-only"].k == 0.0 and grid["tcrm-only"].tcrm_enabled
        assert not grid["adae-only"].tcrm_enabled and grid["adae-only"].k > 0
        with pytest.raises(ValueError):
            trainer.apply_preset(base, "nope")


class TestPretrain:
    def test_zero_steps_returns_initial_params(self):
        arch = diffnet.for_task(2, 2, hidden_dims=(8,))
        cfg = trainer.TrainConfig(task=SMALL_TASK, hidden_dims=(8,), pretrain_steps=0, seed=4)
        got = trainer.pretrain(cfg)
        assert np.array_equal(got, diffnet.init_params(arch, 4))

    def test_loss_decreases_over_first_100_steps(self):
        # median over 5 seeds of (early loss - late loss) must be positive
        arch = diffnet.for_task(2, 2, hidden_dims=(16,))
        drops = []
        for seed in range(5):
            params = diffnet.init_params(arch, seed)
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
            state = diffnet.adam_init(params.size)
            losses = []
            for _ in range(100):
                x0 = envsuite.sample_data(SMALL_TASK, rng.random(64), rng.standard_normal((64, 2)))
                x1 = rng.standard_normal(x0.shape)
                tau = rng.uniform(0, 1, 64)
                ctx = rng.integers(0, 2, 64)
                loss, g = fm_kernel_loss_and_grad(arch, params, x0, x1, tau, ctx)
                losses.append(loss)
                diffnet.adam_update(params, g, state, 1e-3)
            drops.append(np.mean(losses[:10]) - np.mean(losses[-10:]))
        assert np.median(drops) > 0

    def test_1d_gaussian_ode_mean_close_to_data_mean(self):
        task = envsuite.TaskSpec(
            num_modes=1, context_count=1, state_dim=1, mode_var=0.25, mode_centers=[[0.7]]
        )
        cfg = trainer.TrainConfig(task=task, pretrain_steps=2000, seed=2)
        arch = cfg.architecture()
        assert arch == diffnet.for_task(1, 1)
        params = trainer.pretrain(cfg)
        sched = flowcore.NoiseSchedule(a=0.0, num_steps=10)
        samples, = flowcore.sample_terminal_ode(arch, params, sched, [0], 2000, [np.random.default_rng(0)])
        assert abs(float(samples.mean()) - 0.7) < 0.1

    @pytest.mark.parametrize("overrides", [
        {},
        {"task": envsuite.TaskSpec(name="half-plane", state_dim=1, context_count=1)},
        {"task": envsuite.TaskSpec(name="ring")},
        {"pretrain_batch": 1},
        {"pretrain_steps": 5},
    ], ids=["mode-preference-2d", "half-plane-1d-one-context", "ring", "batch-of-one", "shorter-than-a-chunk"])
    def test_matches_the_reference_loop_bitwise(self, overrides):
        # the reference checks every input, builds every array anew, draws
        # modes with Generator.choice and updates Adam out of place
        cfg = trainer.TrainConfig(**{"pretrain_steps": 300, "seed": 3, **overrides})
        assert trainer.pretrain(cfg).tobytes() == reference_pretrain(cfg).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_diagnostic(self):
        # a pathological learning rate walks the weights past float range and
        # the quadratic loss overflows to inf within a few steps
        cfg = trainer.TrainConfig(
            task=SMALL_TASK, hidden_dims=(8,), pretrain_steps=5, seed=0, pretrain_lr=1e154
        )
        with pytest.raises(RuntimeError, match="diverged"):
            trainer.pretrain(cfg)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_after_the_first_chunk_stops_at_that_step(self, count_calls):
        # data spread so wide (sd 3e153) that the squared residual of a rare
        # draw overflows while the residual stays finite; with this seed the
        # first such draw comes at step 30, inside the fourth chunk of steps
        task = envsuite.TaskSpec(state_dim=1, context_count=1, mode_centers=[[0.0]], mode_var=1e307)
        cfg = trainer.TrainConfig(task=task, hidden_dims=(8,), pretrain_steps=40, pretrain_batch=4, seed=0)
        with pytest.raises(RuntimeError) as want:
            reference_pretrain(cfg)
        step = int(re.search(r"diverged at step (\d+):", str(want.value)).group(1))
        assert step >= trainer.PRETRAIN_CHUNK
        updates = count_calls(diffnet, "adam_update")
        with pytest.raises(RuntimeError) as got:
            trainer.pretrain(cfg)
        assert str(got.value) == str(want.value)
        assert len(updates) == step


def rewards_of(batch, cfg):
    """The batch's dense rewards, projected with the rollout's own velocities."""
    return trainer.instant_rewards(cfg.task, batch, batch.hs[-1])


def advantages_of(batch, cfg):
    return trainer.compute_advantages(rewards_of(batch, cfg), cfg)


class TestComputeAdvantages:
    def test_flow_grpo_broadcasts_terminal_column(self, tiny_setup):
        cfg, _, batch = tiny_setup
        cfg_grpo = trainer.apply_preset(cfg, "flow-grpo")
        rewards = rewards_of(batch, cfg)
        advantages = trainer.compute_advantages(rewards, cfg_grpo)
        assert np.all(advantages == advantages[..., :1])
        for b in range(batch.contexts.shape[0]):
            want = grpo_advantages(rewards[b, :, -1], batch.num_steps, cfg.eps_std)
            assert np.array_equal(advantages[b], want)

    def test_vgpo_uses_adae_on_cumulative_values(self, tiny_setup):
        cfg, _, batch = tiny_setup
        rewards = rewards_of(batch, cfg)
        advantages = trainer.compute_advantages(rewards, cfg)
        q = adv.cumulative_values(rewards, cfg.gamma)
        omega = adv.value_weights(q, cfg.eps_mean)
        want = adv.adae(q, cfg.k, omega, cfg.eps_std)
        assert np.array_equal(advantages, want)

    def test_tcrm_disabled_uses_terminal_broadcast_with_unit_weights(self, tiny_setup):
        cfg, _, batch = tiny_setup
        cfg_off = replace(cfg, tcrm_enabled=False)
        rewards = rewards_of(batch, cfg)
        advantages = trainer.compute_advantages(rewards, cfg_off)
        terminal = rewards[..., -1]
        q = np.tile(terminal[..., None], (1, 1, batch.num_steps))
        want = adv.adae(q, cfg.k, np.ones_like(q), cfg.eps_std)
        assert np.array_equal(advantages, want)


class TestInstantRewards:
    @pytest.mark.parametrize("hidden_dims", [(8,), (64, 64)], ids=["small", "default-width"])
    def test_the_reference_pass_at_theta_gives_the_policy_rewards(self, pretrained, hidden_dims):
        # at theta_ref = theta the reference pass's velocity rows are the
        # rollout's, up to rounding: one pass over all B * G * T rows runs
        # other BLAS row counts than the rollout's T passes of B * G rows
        cfg = small_config(hidden_dims=hidden_dims)
        theta = pretrained if hidden_dims == (8,) else diffnet.init_params(cfg.architecture(), 3)
        state = trainer.init_state(cfg, theta)
        batch = trainer.rollout_batch(state, 1)
        assert np.array_equal(state.theta_ref, state.theta)
        v_ref = reference_velocity_at(state.arch, state.theta_ref, batch)
        got = trainer.instant_rewards(cfg.task, batch, v_ref)
        want = rewards_of(batch, cfg)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestClippedTerm:
    def test_hand_evaluated_clip(self):
        # ratio 1.5, eps 0.2, advantage 1 -> min(1.5, 1.2) = 1.2
        assert trainer.clipped_term(1.5, 1.0, 0.2) == 1.2

    def test_within_band_unclipped(self):
        assert trainer.clipped_term(1.1, 2.0, 0.2) == pytest.approx(2.2)

    def test_negative_advantage_pessimistic(self):
        # min picks the unclipped branch when it is lower
        assert trainer.clipped_term(1.5, -1.0, 0.2) == -1.5

    def test_never_exceeds_upper_bound(self, rng):
        # the signed surrogate is bounded above by (1 + eps) * |A|
        ratios = rng.uniform(0.0, 3.0, 200)
        advs = rng.standard_normal(200)
        out = trainer.clipped_term(ratios, advs, 0.2)
        assert np.all(out <= (1.2) * np.abs(advs) + 1e-12)


def surrogate(arch, theta, theta_ref, batch, advantages, eps_clip, beta_kl):
    """The surrogate on one batch, against theta_ref's step means."""
    return surrogate_at(arch, theta, batch, advantages, reference_means_at(arch, theta_ref, batch), eps_clip, beta_kl)


class TestSurrogate:
    def test_on_policy_identity(self, tiny_setup):
        cfg, state, batch = tiny_setup
        advantages = advantages_of(batch, cfg)
        res = surrogate(
            state.arch, state.theta, state.theta_ref, batch, advantages, cfg.eps_clip, beta_kl=0.0
        )
        # the policy that generated the batch: every recomputed ratio is 1 and
        # the surrogate value is the advantage mean
        assert abs(res.mean_ratio - 1.0) < 1e-10
        assert abs(res.value - advantages.mean()) < 1e-10
        assert res.clip_fraction == 0.0

    def test_on_policy_magnitude_bound(self, tiny_setup):
        # in the on-policy regime the per-element surrogate magnitude cannot
        # exceed (1 + eps) |A|; with ratios == 1 it equals |A| exactly
        cfg, state, batch = tiny_setup
        advantages = advantages_of(batch, cfg)
        res = surrogate(
            state.arch, state.theta, state.theta_ref, batch, advantages, cfg.eps_clip, beta_kl=0.0
        )
        assert abs(res.value) <= (1 + cfg.eps_clip) * np.abs(advantages).mean() + 1e-12

    def test_reference_policy_has_zero_kl(self, tiny_setup):
        cfg, state, batch = tiny_setup
        advantages = advantages_of(batch, cfg)
        res = surrogate(
            state.arch, state.theta_ref.copy(), state.theta_ref, batch, advantages, cfg.eps_clip, cfg.beta_kl
        )
        assert res.kl == 0.0

    def test_kl_nonnegative_off_reference(self, tiny_setup):
        cfg, state, batch = tiny_setup
        advantages = advantages_of(batch, cfg)
        res = surrogate(
            state.arch, state.theta + 0.01, state.theta_ref, batch, advantages, cfg.eps_clip, cfg.beta_kl
        )
        assert res.kl > 0.0

    def test_gradient_matches_finite_differences(self):
        # tiny net (<= 200 params) so central differences stay cheap
        task = SMALL_TASK
        arch = diffnet.for_task(2, 2, hidden_dims=(6,))
        assert diffnet.param_count(arch) <= 200
        theta = diffnet.init_params(arch, 5)
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=4)
        group = rollout.rollout_group(arch, theta, [1], 3, sched, seeds=[(7, 0)])
        cfg = trainer.TrainConfig(
            task=task, hidden_dims=(6,), sampling_steps=4, group_size=3
        )
        advantages = advantages_of(group, cfg)
        theta_ref = diffnet.init_params(arch, 12)
        ref_mean = reference_means_at(arch, theta_ref, group)
        rng = np.random.default_rng(9)
        # at shift 0.1 a share of the ratios leaves the clip band, so the
        # saturated branch's zero gradient is checked too
        for shift in (0.0, 0.01, 0.1):
            theta_cur = theta + shift * rng.standard_normal(theta.size)
            res = surrogate_at(arch, theta_cur, group, advantages, ref_mean, 0.2, 0.01)
            if shift == 0.1:
                assert res.clip_fraction > 0.0

            def value_at(t):
                return surrogate_at(arch, t, group, advantages, ref_mean, 0.2, 0.01).value

            fd = central_difference(value_at, theta_cur)
            assert max_rel_error(res.grad, fd) < 1e-5

    def test_deterministic_rollouts_rejected(self):
        arch = diffnet.for_task(2, 2, hidden_dims=(6,))
        theta = diffnet.init_params(arch, 5)
        sched = flowcore.NoiseSchedule(a=0.0, num_steps=4)
        group = rollout.rollout_group(arch, theta, [0], 3, sched, seeds=[1])
        advantages = adv.adae(np.ones((1, 3, 4)), 0.5, np.ones((1, 3, 4)))
        ref_mean = reference_means_at(arch, theta, group)
        with pytest.raises(ValueError, match="stochastic"):
            surrogate_at(arch, theta.copy(), group, advantages, ref_mean, 0.2, 0.01)

    def test_inputs_not_shaped_like_the_batch_rejected(self, tiny_setup):
        cfg, state, batch = tiny_setup
        advantages = advantages_of(batch, cfg)
        ref_mean = reference_means_at(state.arch, state.theta_ref, batch)
        assert ref_mean.shape == batch.states[:, :, :-1].shape
        with pytest.raises(ValueError, match=r"advantage shape \(2, 4, 4\) != \(2, 4, 5\)"):
            surrogate_at(state.arch, state.theta, batch, advantages[..., 1:], ref_mean, 0.2, 0.01)
        with pytest.raises(ValueError, match=r"reference mean shape \(1, 4, 5, 2\) != \(2, 4, 5, 2\)"):
            surrogate_at(state.arch, state.theta, batch, advantages, ref_mean[:1], 0.2, 0.01)


def _constant_rewards(batch, value):
    """A reward table of the batch's shape, every instant and terminal reward ``value``."""
    return np.full(batch.logp_old.shape, value)


class TestStagnationContrast:
    def test_flow_grpo_update_is_exactly_zero(self, tiny_setup, pretrained):
        cfg, state, _ = tiny_setup
        cfg_grpo = trainer.apply_preset(cfg, "flow-grpo")
        fresh = trainer.init_state(cfg_grpo, pretrained)
        batch = trainer.rollout_batch(fresh, 1)
        advantages = trainer.compute_advantages(_constant_rewards(batch, 0.8), cfg_grpo)
        assert np.all(advantages == 0.0)
        _, _, update_norm = trainer.update_policy(fresh, batch, advantages, 1)
        assert update_norm == 0.0

    def test_vgpo_update_is_nonzero(self, tiny_setup, pretrained):
        cfg, _, _ = tiny_setup
        fresh = trainer.init_state(cfg, pretrained)
        batch = trainer.rollout_batch(fresh, 1)
        advantages = trainer.compute_advantages(_constant_rewards(batch, 0.8), cfg)
        # degenerate columns engage the absolute-value limit
        assert np.all(advantages > 0.0)
        _, _, update_norm = trainer.update_policy(fresh, batch, advantages, 1)
        assert update_norm >= 1e-6


class TestTrainStep:
    def test_fixed_seed_identical_records(self):
        cfg = small_config()
        recs = []
        for _ in range(2):
            state = trainer.init_state(cfg, trainer.pretrain(cfg))
            recs.append(trainer.train_step(state, 1))
        assert recs[0] == recs[1]

    def test_on_policy_ratio_one_after_refresh(self, tiny_setup):
        cfg, state, batch = tiny_setup
        advantages = advantages_of(batch, cfg)
        for b in range(batch.contexts.shape[0]):
            fields = ("contexts", "states", "logp_old", "phi")
            group = replace(
                batch, **{name: getattr(batch, name)[b:b + 1] for name in fields},
                hs=[h[b:b + 1] for h in batch.hs],
            )
            res = surrogate(
                state.arch, state.theta, state.theta_ref, group, advantages[b:b + 1],
                cfg.eps_clip, cfg.beta_kl,
            )
            assert abs(res.mean_ratio - 1.0) < 1e-10


class TestOnePassPerTransition:
    @pytest.mark.parametrize("inner_epochs", [1, 2])
    def test_network_calls_per_default_train_step(self, count_calls, inner_epochs):
        # T in the rollout, one reference pass in reference_means, and one per
        # inner epoch after the first, which reads the rollout's pass
        cfg = trainer.TrainConfig(inner_epochs=inner_epochs)
        state = trainer.init_state(cfg, diffnet.init_params(cfg.architecture(), 0))
        calls = count_calls(diffnet, "mlp")
        trainer.train_step(state, 1)
        assert len(calls) == cfg.sampling_steps + inner_epochs

    def test_stored_pass_is_the_old_policys_pass_over_the_rows(self, tiny_setup):
        cfg, state, batch = tiny_setup
        advantages = advantages_of(batch, cfg)
        b, g, t, d = batch.states[:, :, :-1].shape
        taus = np.tile(batch.schedule.tau_grid(), b * g)
        x = batch.states[:, :, :-1].reshape(-1, d)
        phi = diffnet.features(state.arch, x, taus, np.repeat(batch.contexts, g * t))
        layers = diffnet.unpack(state.arch, state.theta)
        hs = diffnet.layer_buffers(layers, phi.shape[0])
        diffnet.mlp(layers, phi, hs)
        # the surrogate and the reference pass read the features through this
        # reshape, which is a view: the rows are the batch's, not a copy
        rows = batch.phi.reshape(-1, state.arch.input_dim)
        assert np.array_equal(rows, phi)
        assert np.shares_memory(rows, batch.phi)
        for stored, want in zip(batch.hs, hs, strict=True):
            assert np.array_equal(stored.reshape(want.shape), want)


class TestNonFiniteGradient:
    def test_a_finite_gradient_names_no_contexts(self, tiny_setup, pretrained):
        cfg, _, _ = tiny_setup
        fresh = trainer.init_state(cfg, pretrained)
        batch = trainer.rollout_batch(fresh, 4)
        advantages = advantages_of(batch, cfg)
        res = surrogate(fresh.arch, fresh.theta, fresh.theta_ref, batch, advantages, cfg.eps_clip, cfg.beta_kl)
        assert np.isfinite(res.grad).all()
        assert res.nonfinite_contexts is None

    def test_nan_advantage_stops_the_update(self, tiny_setup, pretrained):
        cfg, _, _ = tiny_setup
        fresh = trainer.init_state(cfg, pretrained)
        batch = trainer.rollout_batch(fresh, 5)
        poisoned = advantages_of(batch, cfg)
        poisoned[1, 0, 3] = np.nan
        theta_before = fresh.theta.copy()
        res = surrogate(
            fresh.arch, fresh.theta, fresh.theta_ref, batch, poisoned, cfg.eps_clip, cfg.beta_kl
        )
        assert res.nonfinite_contexts == (int(batch.contexts[1]),)
        with pytest.raises(RuntimeError, match=rf"step 5: contexts \[{batch.contexts[1]}\]"):
            trainer.update_policy(fresh, batch, poisoned, 5)
        assert np.array_equal(fresh.theta, theta_before)
        assert fresh.adam.t == 0

    def test_overflow_in_a_sum_over_rows_is_named(self, tiny_setup, pretrained, monkeypatch):
        # every backward row finite, the gradient not: no context to name,
        # so the message says so and gives the largest |theta|. The output
        # bias gradient, a sum over rows, is made to overflow inside backward,
        # so the surrogate's own whole-array test finds it
        cfg, _, _ = tiny_setup
        fresh = trainer.init_state(cfg, pretrained)
        batch = trainer.rollout_batch(fresh, 2)
        real = diffnet.backward

        def overflowing(layers, phi, hs, upstream, grads, deltas):
            delta = real(layers, phi, hs, upstream, grads, deltas)
            grads[-1][1][0] = np.inf
            return delta

        monkeypatch.setattr(diffnet, "backward", overflowing)
        largest = f"{np.abs(fresh.theta).max():.3g}"
        with pytest.raises(RuntimeError, match=rf"step 2: every backward row is finite.*\|theta\| {largest}$"):
            trainer.update_policy(fresh, batch, advantages_of(batch, cfg), 2)

    def test_two_poisoned_slots_name_both_contexts_sorted(self, tiny_setup, pretrained):
        cfg, _, _ = tiny_setup
        fresh = trainer.init_state(cfg, pretrained)
        batch = trainer.rollout_batch(fresh, 3)
        # the larger context comes first, so the names must be sorted
        assert batch.contexts.tolist() == [1, 0]
        poisoned = advantages_of(batch, cfg)
        poisoned[0, 1, 0] = np.nan
        poisoned[1, 3, -1] = np.nan
        theta_before = fresh.theta.copy()
        res = surrogate(
            fresh.arch, fresh.theta, fresh.theta_ref, batch, poisoned, cfg.eps_clip, cfg.beta_kl
        )
        assert res.nonfinite_contexts == (0, 1)
        with pytest.raises(RuntimeError, match=r"step 3: contexts \[0, 1\]"):
            trainer.update_policy(fresh, batch, poisoned, 3)
        assert np.array_equal(fresh.theta, theta_before)
        assert fresh.adam.t == 0


class TestInnerEpochs:
    @pytest.mark.parametrize("inner_epochs", [2, 3])
    def test_epochs_are_ascent_steps_on_the_same_rows(self, pretrained, inner_epochs):
        # the first epoch evaluates the policy that generated the batch, where
        # every ratio is 1; only later ones see a moved policy, the one place
        # the clip band can act. With three epochs the third runs its pass
        # into arrays the second epoch's backward has written over
        cfg = small_config(inner_epochs=inner_epochs)
        state = trainer.init_state(cfg, pretrained)
        batch = trainer.rollout_batch(state, 1)
        advantages = advantages_of(batch, cfg)
        ref_mean = reference_means_at(state.arch, state.theta_ref, batch)
        theta, adam = state.theta.copy(), copy.deepcopy(state.adam)
        epochs = []
        for _ in range(inner_epochs):
            res = surrogate_at(state.arch, theta, batch, advantages, ref_mean, cfg.eps_clip, cfg.beta_kl)
            diffnet.adam_update(theta, -res.grad, adam, cfg.lr)
            epochs.append(res)
        surrogate, kl, update_norm = trainer.update_policy(state, batch, advantages, 1)
        assert np.array_equal(state.theta, theta)
        assert state.adam.t == adam.t == inner_epochs
        assert np.array_equal(state.adam.m, adam.m) and np.array_equal(state.adam.v, adam.v)
        assert surrogate == float(np.mean([res.value for res in epochs]))
        assert kl == float(np.mean([res.kl for res in epochs]))
        assert update_norm == float(np.linalg.norm(theta - pretrained))
        assert abs(epochs[0].mean_ratio - 1.0) < 1e-10
        assert abs(epochs[1].mean_ratio - 1.0) > 1e-6


BATCH_FIELDS = ("contexts", "states", "logp_old", "phi")


class TestStepBuffers:
    def test_a_steady_default_step_allocates_under_half_the_per_step_arrays(self):
        # the tracemalloc peak above the starting level during a second
        # default step on the same state: 973 KB while the rollout, the
        # reference pass and backward allocated their arrays in every step,
        # about 300 KB (parameter-sized Adam and norm temporaries) on the
        # run's own buffers
        cfg = trainer.TrainConfig()
        state = trainer.init_state(cfg, diffnet.init_params(cfg.architecture(), 0))
        trainer.train_step(state, 1)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            trainer.train_step(state, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 480 * 1024

    @pytest.mark.parametrize("hidden_dims", [(64, 64), (24, 40, 16)], ids=["default", "uneven"])
    def test_a_run_allocates_only_its_parameters_and_rollout_buffers(self, hidden_dims):
        # theta, theta_ref, Adam's m and v and the make_buffers arrays, with
        # 16 KB for the small objects around them: 337 KB over at the default
        # shape while the state kept a layer-buffer set of its own
        cfg = trainer.TrainConfig(hidden_dims=hidden_dims)
        arch = cfg.architecture()
        pretrained = diffnet.init_params(arch, 0)
        made = rollout.make_buffers(arch, cfg.batch_contexts, cfg.group_size, cfg.sampling_steps)
        arrays = [made.states, made.means, made.phi, *made.hs]
        arrays += [a for name, a in made.batch.items() if name != "hs"] + made.batch["hs"]
        expected = 4 * pretrained.nbytes + sum(a.nbytes for a in arrays)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            trainer.init_state(cfg, pretrained)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert expected <= peak - start < expected + 16 * 1024

    @pytest.mark.parametrize("inner_epochs", [1, 2])
    @pytest.mark.parametrize("hidden_dims", [(8,), (24, 40, 16)], ids=["one-layer", "uneven"])
    def test_reused_buffers_carry_nothing_between_steps(self, inner_epochs, hidden_dims):
        # one state steps on its own buffers; the other rolls out and updates
        # every step on fresh buffers, sharing its theta and Adam state with
        # the state it was made from
        cfg = small_config(inner_epochs=inner_epochs, hidden_dims=hidden_dims, pretrain_steps=100)
        pretrained = trainer.pretrain(cfg)
        own, other = trainer.init_state(cfg, pretrained), trainer.init_state(cfg, pretrained)
        contexts = []
        for step in range(1, 4):
            made = trainer.init_state(cfg, other.theta)
            fresh = replace(other, buffers=made.buffers)
            want = trainer.rollout_batch(fresh, step)
            trainer.update_policy(fresh, want, advantages_of(want, cfg), step)
            batch = trainer.rollout_batch(own, step)
            assert np.shares_memory(batch.hs[0], own.buffers.batch["hs"][0])
            trainer.update_policy(own, batch, advantages_of(batch, cfg), step)
            assert np.array_equal(own.theta, other.theta)
            for name in BATCH_FIELDS:
                assert np.array_equal(getattr(batch, name), getattr(want, name)), name
            assert all(np.array_equal(h, w) for h, w in zip(batch.hs, want.hs, strict=True))
            contexts.append(batch.contexts.tolist())
        # step 2 rewrites a one-hot block that step 1 filled for other contexts
        assert contexts[1] != contexts[0]

    def test_the_next_batch_overwrites_a_batch_made_on_the_same_buffers(self, pretrained):
        state = trainer.init_state(small_config(), pretrained)
        first = trainer.rollout_batch(state, 1)
        kept = first.states.copy()
        second = trainer.rollout_batch(state, 2)
        assert second.states is first.states
        assert not np.array_equal(first.states, kept)


class TestInPlaceSafety:
    def test_callers_arrays_are_never_written(self, pretrained, monkeypatch):
        # Adam writes the state's theta in place: the pretrained input, the
        # checkpoints handed out and the result must all be separate arrays
        frozen = pretrained.copy()
        state = trainer.init_state(small_config(), pretrained)
        trainer.train_step(state, 1)
        assert np.array_equal(pretrained, frozen)
        assert not np.shares_memory(state.theta, pretrained)
        assert not np.shares_memory(state.theta_ref, state.theta)
        assert np.array_equal(state.theta_ref, pretrained)

        states, handed = [], []
        real_init_state = trainer.init_state

        def recording_init_state(*args):
            states.append(real_init_state(*args))
            return states[-1]

        monkeypatch.setattr(trainer, "init_state", recording_init_state)
        cfg = small_config(train_steps=4, checkpoint_every=2)
        result = trainer.run(cfg, pretrained, on_checkpoint=lambda step, p: handed.append((p, p.copy())))
        assert np.array_equal(pretrained, frozen)
        theta = states[0].theta
        assert not np.shares_memory(result.params, theta) and np.array_equal(result.params, theta)
        assert len(handed) == 2
        for params, at_hand_over in handed:
            assert not np.shares_memory(params, theta)
            assert np.array_equal(params, at_hand_over)
        assert not np.array_equal(handed[0][0], handed[1][0])


class TestReductionEquivalence:
    def test_vgpo_degenerate_matches_flow_grpo_bitwise(self, pretrained):
        # tcrm off + k = 0 (the flow-grpo preset; weights are ones by
        # construction) must follow an update loop driven by GRPO's
        # group-normalized terminal rewards step for step
        cfg = trainer.apply_preset(small_config(train_steps=0), "flow-grpo")
        state_a = trainer.init_state(cfg, pretrained)
        state_b = trainer.init_state(cfg, pretrained)
        for step in range(1, 11):
            batch = trainer.rollout_batch(state_a, step)
            advantages = np.stack(
                [grpo_advantages(r, batch.num_steps, cfg.eps_std) for r in rewards_of(batch, cfg)[..., -1]]
            )
            trainer.update_policy(state_a, batch, advantages, step)
            trainer.train_step(state_b, step)
            diff = np.max(np.abs(state_a.theta - state_b.theta))
            assert diff <= 1e-12


class TestEvaluate:
    def test_evaluation_never_builds_the_schedule_table(self):
        # a config makes one schedule, whose step table the first rollout
        # works out and evaluation, which needs no noise, never does
        cfg = small_config()
        assert cfg.schedule() is cfg.schedule()
        arch = cfg.architecture()
        params = diffnet.init_params(arch, 0)
        trainer.evaluate(arch, params, cfg, step=0)
        assert "table" not in vars(cfg.schedule())
        trainer.rollout_batch(trainer.init_state(cfg, params), 1)
        assert "table" in vars(cfg.schedule())

    def test_non_finite_state_stops_evaluation(self):
        cfg = small_config()
        arch = cfg.architecture()
        params = diffnet.init_params(arch, 0)
        params[-arch.output_dim:] = np.inf  # output bias: every velocity is inf
        with pytest.raises(RuntimeError, match="step t=5 context=0: non-finite ODE state"):
            trainer.evaluate(arch, params, cfg, step=0)

    @pytest.mark.parametrize("case", ["pretrained", "trained", *FAR_TASKS])
    def test_float32_statistics_stay_near_the_float64_oracle(self, pretrained, case):
        # float32 samples are within about 1e-6 of the float64 path: the
        # reward (slope below 2 here) moves by less than 1e-5, and a sample
        # changes its side of the accuracy threshold only if its reward lies
        # within 1e-5 of it, which none of these does. The log-density (slope
        # |x - c| / mode_var) moves by less than 1e-4 near the modes, where
        # the slope is a few tens; for samples that an output bias moves
        # about 20, then 60, from every mode it moves by up to about 1e-3,
        # a relative 1e-7
        cfg = small_config(task=FAR_TASKS.get(case, SMALL_TASK), eval_samples=512)
        arch = cfg.architecture()
        if case in FAR_TASKS:
            thetas = [diffnet.init_params(arch, 0), diffnet.init_params(arch, 0)]
            for theta, shift in zip(thetas, (20.0, 60.0)):
                theta[-arch.output_dim:] = -shift / math.sqrt(arch.output_dim)
        else:
            thetas = [trainer.run(cfg, pretrained).params if case == "trained" else pretrained]
        for params in thetas:
            for step in (0, 7):
                got = trainer.evaluate(arch, params, cfg, step)
                want = reference_evaluate(arch, params, cfg, step)
                assert abs(got["mean_reward"] - want["mean_reward"]) < 1e-5
                assert got["accuracy"] == want["accuracy"]
                quality_error = abs(got["quality_mean"] - want["quality_mean"])
                if case in FAR_TASKS:
                    assert quality_error < 1e-6 * abs(want["quality_mean"])
                else:
                    assert quality_error < 1e-4

    @pytest.mark.parametrize("context_count", [1, 2])
    def test_layer_buffers_are_allocated_once_per_request(self, count_calls, context_count):
        # the evaluation sampler shares one set of layer buffers across all
        # contexts, so peak memory does not grow with the context count
        cfg = small_config(task=replace(SMALL_TASK, context_count=context_count))
        arch = cfg.architecture()
        params = diffnet.init_params(arch, 0)
        calls = count_calls(diffnet, "layer_buffers")
        trainer.evaluate(arch, params, cfg, step=0)
        assert len(calls) == 1
        trainer.evaluate(arch, params, cfg, step=1)
        assert len(calls) == 2

    def test_the_sampler_writes_no_features(self, count_calls):
        # the evaluation sampler folds the time and context features into the
        # first layer: no feature matrix is made or rewritten
        cfg = small_config()
        arch = cfg.architecture()
        calls = [count_calls(diffnet, name) for name in ("features", "write_state_time", "write_context")]
        trainer.evaluate(arch, diffnet.init_params(arch, 0), cfg, step=0)
        assert calls == [[], [], []]

    @pytest.mark.parametrize("name", envsuite.TASK_NAMES)
    def test_one_scoring_pass_is_per_context_scoring_bit_for_bit(self, name):
        # the samples of every context, scored by one reward call given each
        # row's context and one quality call, against one call per context
        task = envsuite.TaskSpec(name, num_modes=4, context_count=3)
        cfg = small_config(task=task, eval_samples=64, seed=5)
        arch = cfg.architecture()
        params = 3.0 * diffnet.init_params(arch, 2)
        rngs = [np.random.default_rng(np.random.SeedSequence((5, trainer.STREAM_EVAL, 4, c))) for c in range(3)]
        samples = flowcore.sample_terminal_ode(arch, params, cfg.schedule(), range(3), 64, rngs)
        r = np.concatenate([envsuite.reward(task, x, c) for c, x in enumerate(samples)])
        q = np.concatenate([envsuite.quality(task, x) for x in samples])
        flat = samples.reshape(-1, 2)
        assert np.array_equal(envsuite.reward(task, flat, np.repeat(np.arange(3), 64)), r)
        assert np.array_equal(envsuite.quality(task, flat), q)
        assert trainer.evaluate(arch, params, cfg, step=4) == {
            "mean_reward": float(r.mean()),
            "accuracy": float((r > cfg.accuracy_threshold).mean()),
            "quality_mean": float(q.mean()),
        }


class TestRun:
    def test_zero_steps_emits_single_pretrained_evaluation(self, pretrained):
        cfg = small_config(train_steps=0)
        result = trainer.run(cfg, pretrained)
        assert len(result.metrics) == 1
        assert result.metrics[0].step == 0
        assert result.metrics[0].update_norm == 0.0

    def test_eval_cadence_and_final_step(self, pretrained):
        cfg = small_config(train_steps=7, eval_every=3)
        result = trainer.run(cfg, pretrained)
        assert [r.step for r in result.metrics] == [0, 3, 6, 7]

    def test_metrics_sane(self, pretrained):
        cfg = small_config(train_steps=5, eval_every=5)
        result = trainer.run(cfg, pretrained)
        for rec in result.metrics:
            assert 0.0 <= rec.accuracy <= 1.0
            assert rec.group_reward_std_mean >= 0.0
            assert rec.kl_mean >= 0.0
            assert rec.wallclock_ms >= 0.0

    def test_checkpoint_callback_cadence(self, pretrained):
        cfg = small_config(train_steps=6, checkpoint_every=2)
        seen = []
        trainer.run(cfg, pretrained, on_checkpoint=lambda step, params: seen.append(step))
        assert seen == [2, 4, 6]
