from dataclasses import replace

import numpy as np
import pytest

from flowrl import advantage as adv
from flowrl import diffnet, envsuite, flowcore, rollout, trainer

from _oracles import central_difference, grpo_advantages, max_rel_error

SMALL_TASK = envsuite.TaskSpec(
    num_modes=2, radius=1.5, mode_var=0.09, context_count=2, state_dim=2,
    mode_centers=[[1.5, 0.0], [-1.5, 0.0]],
)


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
def tiny_setup():
    """Tiny pretrained policy plus one rollout batch, shared across tests."""
    cfg = small_config()
    state = trainer.init_state(cfg)
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
        got = trainer.pretrain(arch, SMALL_TASK, steps=0, seed=4)
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
                x0 = envsuite.sample_data(SMALL_TASK, rng, n=64)
                x1 = rng.standard_normal(x0.shape)
                tau = rng.uniform(0, 1, 64)
                ctx = rng.integers(0, 2, 64)
                loss, g = flowcore.fm_loss_and_grad(arch, params, x0, x1, tau, ctx)
                losses.append(loss)
                params, state = diffnet.adam_update(params, g, state, 1e-3)
            drops.append(np.mean(losses[:10]) - np.mean(losses[-10:]))
        assert np.median(drops) > 0

    def test_1d_gaussian_ode_mean_close_to_data_mean(self):
        task = envsuite.TaskSpec(
            num_modes=1, context_count=1, state_dim=1, mode_var=0.25, mode_centers=[[0.7]]
        )
        arch = diffnet.for_task(1, 1)
        params = trainer.pretrain(arch, task, steps=2000, seed=2)
        sched = flowcore.NoiseSchedule(a=0.0, num_steps=10)
        samples = flowcore.sample_terminal_ode(arch, params, sched, 0, 2000, np.random.default_rng(0))
        assert abs(float(samples.mean()) - 0.7) < 0.1

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_diagnostic(self):
        # a pathological learning rate walks the weights past float range and
        # the quadratic loss overflows to inf within a few steps
        arch = diffnet.for_task(2, 2, hidden_dims=(8,))
        with pytest.raises(RuntimeError, match="diverged"):
            trainer.pretrain(arch, SMALL_TASK, steps=5, seed=0, lr=1e154)


class TestComputeAdvantages:
    def test_flow_grpo_broadcasts_terminal_column(self, tiny_setup):
        cfg, _, batch = tiny_setup
        cfg_grpo = trainer.apply_preset(cfg, "flow-grpo")
        advantages = trainer.compute_advantages(batch, cfg_grpo)
        assert np.all(advantages == advantages[..., :1])
        for b in range(batch.contexts.shape[0]):
            want = grpo_advantages(batch.terminal_rewards[b], batch.num_steps, cfg.eps_std)
            assert np.array_equal(advantages[b], want)

    def test_vgpo_uses_adae_on_cumulative_values(self, tiny_setup):
        cfg, _, batch = tiny_setup
        advantages = trainer.compute_advantages(batch, cfg)
        q = adv.cumulative_values(batch.instant_rewards, cfg.gamma)
        omega = adv.value_weights(q, cfg.eps_mean)
        want = adv.adae(q, cfg.k, omega, cfg.eps_std)
        assert np.array_equal(advantages, want)

    def test_tcrm_disabled_uses_terminal_broadcast_with_unit_weights(self, tiny_setup):
        cfg, _, batch = tiny_setup
        cfg_off = replace(cfg, tcrm_enabled=False)
        advantages = trainer.compute_advantages(batch, cfg_off)
        terminal = batch.terminal_rewards
        q = np.tile(terminal[..., None], (1, 1, batch.num_steps))
        want = adv.adae(q, cfg.k, np.ones_like(q), cfg.eps_std)
        assert np.array_equal(advantages, want)


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


class TestSurrogate:
    def test_on_policy_identity(self, tiny_setup):
        cfg, state, batch = tiny_setup
        advantages = trainer.compute_advantages(batch, cfg)
        res = trainer.surrogate_loss_and_grad(
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
        advantages = trainer.compute_advantages(batch, cfg)
        res = trainer.surrogate_loss_and_grad(
            state.arch, state.theta, state.theta_ref, batch, advantages, cfg.eps_clip, beta_kl=0.0
        )
        assert abs(res.value) <= (1 + cfg.eps_clip) * np.abs(advantages).mean() + 1e-12

    def test_reference_policy_has_zero_kl(self, tiny_setup):
        cfg, state, batch = tiny_setup
        advantages = trainer.compute_advantages(batch, cfg)
        res = trainer.surrogate_loss_and_grad(
            state.arch, state.theta_ref.copy(), state.theta_ref, batch, advantages, cfg.eps_clip, cfg.beta_kl
        )
        assert res.kl == 0.0

    def test_kl_nonnegative_off_reference(self, tiny_setup):
        cfg, state, batch = tiny_setup
        advantages = trainer.compute_advantages(batch, cfg)
        res = trainer.surrogate_loss_and_grad(
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
        group = rollout.rollout_group(arch, theta, [1], 3, sched, task, seeds=[(7, 0)])
        cfg = trainer.TrainConfig(
            task=task, hidden_dims=(6,), sampling_steps=4, group_size=3
        )
        advantages = trainer.compute_advantages(group, cfg)
        theta_ref = diffnet.init_params(arch, 12)
        rng = np.random.default_rng(9)
        # at shift 0.1 a share of the ratios leaves the clip band, so the
        # saturated branch's zero gradient is checked too
        for shift in (0.0, 0.01, 0.1):
            theta_cur = theta + shift * rng.standard_normal(theta.size)
            res = trainer.surrogate_loss_and_grad(arch, theta_cur, theta_ref, group, advantages, 0.2, 0.01)
            if shift == 0.1:
                assert res.clip_fraction > 0.0

            def value_at(t):
                return trainer.surrogate_loss_and_grad(arch, t, theta_ref, group, advantages, 0.2, 0.01).value

            fd = central_difference(value_at, theta_cur)
            assert max_rel_error(res.grad, fd) < 1e-5

    def test_deterministic_rollouts_rejected(self):
        arch = diffnet.for_task(2, 2, hidden_dims=(6,))
        theta = diffnet.init_params(arch, 5)
        sched = flowcore.NoiseSchedule(a=0.0, num_steps=4)
        group = rollout.rollout_group(arch, theta, [0], 3, sched, SMALL_TASK, seeds=[1])
        advantages = adv.adae(np.ones((1, 3, 4)), 0.5, np.ones((1, 3, 4)))
        with pytest.raises(ValueError, match="stochastic"):
            trainer.surrogate_loss_and_grad(arch, theta, theta.copy(), group, advantages, 0.2, 0.01)


def _inject_constant_rewards(batch, value):
    batch.instant_rewards[...] = value
    batch.terminal_rewards[...] = value


class TestStagnationContrast:
    def test_flow_grpo_update_is_exactly_zero(self, tiny_setup):
        cfg, state, _ = tiny_setup
        cfg_grpo = trainer.apply_preset(cfg, "flow-grpo")
        fresh = trainer.init_state(cfg_grpo)
        batch = trainer.rollout_batch(fresh, 1)
        _inject_constant_rewards(batch, 0.8)
        advantages = trainer.compute_advantages(batch, cfg_grpo)
        assert np.all(advantages == 0.0)
        _, _, update_norm = trainer.update_policy(fresh, batch, advantages, 1)
        assert update_norm == 0.0

    def test_vgpo_update_is_nonzero(self, tiny_setup):
        cfg, _, _ = tiny_setup
        fresh = trainer.init_state(cfg)
        batch = trainer.rollout_batch(fresh, 1)
        _inject_constant_rewards(batch, 0.8)
        advantages = trainer.compute_advantages(batch, cfg)
        # degenerate columns engage the absolute-value limit
        assert np.all(advantages > 0.0)
        _, _, update_norm = trainer.update_policy(fresh, batch, advantages, 1)
        assert update_norm >= 1e-6


class TestTrainStep:
    def test_fixed_seed_identical_records(self):
        cfg = small_config()
        recs = []
        for _ in range(2):
            state = trainer.init_state(cfg)
            recs.append(trainer.train_step(state, 1))
        assert recs[0] == recs[1]

    def test_on_policy_ratio_one_after_refresh(self, tiny_setup):
        cfg, state, batch = tiny_setup
        advantages = trainer.compute_advantages(batch, cfg)
        for b in range(batch.contexts.shape[0]):
            fields = ("contexts", "states", "noises", "logp_old", "instant_rewards", "terminal_rewards")
            group = replace(batch, **{name: getattr(batch, name)[b:b + 1] for name in fields})
            res = trainer.surrogate_loss_and_grad(
                state.arch, state.theta, state.theta_ref, group, advantages[b:b + 1],
                cfg.eps_clip, cfg.beta_kl,
            )
            assert abs(res.mean_ratio - 1.0) < 1e-10


class TestNonFiniteGradient:
    def test_nan_advantage_stops_the_update(self, tiny_setup):
        cfg, _, _ = tiny_setup
        fresh = trainer.init_state(cfg)
        batch = trainer.rollout_batch(fresh, 5)
        poisoned = trainer.compute_advantages(batch, cfg)
        poisoned[1, 0, 3] = np.nan
        theta_before = fresh.theta.copy()
        res = trainer.surrogate_loss_and_grad(
            fresh.arch, fresh.theta, fresh.theta_ref, batch, poisoned, cfg.eps_clip, cfg.beta_kl
        )
        assert res.nonfinite_contexts == (int(batch.contexts[1]),)
        with pytest.raises(RuntimeError, match=rf"step 5: contexts \[{batch.contexts[1]}\]"):
            trainer.update_policy(fresh, batch, poisoned, 5)
        assert np.array_equal(fresh.theta, theta_before)
        assert fresh.adam.t == 0


class TestReductionEquivalence:
    def test_vgpo_degenerate_matches_flow_grpo_bitwise(self):
        # tcrm off + k = 0 (the flow-grpo preset; weights are ones by
        # construction) must follow an update loop driven by GRPO's
        # group-normalized terminal rewards step for step
        cfg = trainer.apply_preset(small_config(train_steps=0), "flow-grpo")
        state_a = trainer.init_state(cfg)
        state_b = trainer.init_state(cfg)
        for step in range(1, 11):
            batch = trainer.rollout_batch(state_a, step)
            advantages = np.stack(
                [grpo_advantages(r, batch.num_steps, cfg.eps_std) for r in batch.terminal_rewards]
            )
            trainer.update_policy(state_a, batch, advantages, step)
            trainer.train_step(state_b, step)
            diff = np.max(np.abs(state_a.theta - state_b.theta))
            assert diff <= 1e-12


class TestEvaluate:
    def test_non_finite_state_stops_evaluation(self):
        cfg = small_config()
        arch = cfg.architecture()
        params = diffnet.init_params(arch, 0)
        params[-arch.output_dim:] = np.inf  # output bias: every velocity is inf
        with pytest.raises(RuntimeError, match="non-finite ODE state at step t=5 context=0"):
            trainer.evaluate(arch, params, cfg, step=0)


class TestRun:
    def test_zero_steps_emits_single_pretrained_evaluation(self):
        cfg = small_config(train_steps=0)
        result = trainer.run(cfg)
        assert len(result.metrics) == 1
        assert result.metrics[0].step == 0
        assert result.metrics[0].update_norm == 0.0

    def test_eval_cadence_and_final_step(self):
        cfg = small_config(train_steps=7, eval_every=3)
        result = trainer.run(cfg)
        assert [r.step for r in result.metrics] == [0, 3, 6, 7]

    def test_metrics_sane(self):
        cfg = small_config(train_steps=5, eval_every=5)
        result = trainer.run(cfg)
        for rec in result.metrics:
            assert 0.0 <= rec.accuracy <= 1.0
            assert rec.group_reward_std_mean >= 0.0
            assert rec.kl_mean >= 0.0
            assert rec.wallclock_ms >= 0.0

    def test_checkpoint_callback_cadence(self):
        cfg = small_config(train_steps=6, checkpoint_every=2)
        seen = []
        trainer.run(cfg, on_checkpoint=lambda step, params: seen.append(step))
        assert seen == [2, 4, 6]
