from dataclasses import replace

import numpy as np
import pytest

from flowrl import advantage as adv
from flowrl import diffnet, envsuite, flowcore, rollout, trainer

from _oracles import central_difference, max_rel_error

SMALL_TASK = envsuite.mode_preference_task(
    num_modes=2, radius=1.5, mode_var=0.09, context_count=2, state_dim=2,
    centers=[[1.5, 0.0], [-1.5, 0.0]],
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
    state.triplet.refresh_old()
    batch = trainer.rollout_batch(state, step_index=1)
    return cfg, state, batch


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = trainer.TrainConfig()
        assert cfg.estimator == "vgpo"
        assert cfg.tcrm_enabled

    def test_flow_grpo_forces_tcrm_off(self):
        with pytest.raises(ValueError):
            trainer.TrainConfig(estimator="flow-grpo", tcrm_enabled=True)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            trainer.TrainConfig(gamma=1.5)
        with pytest.raises(ValueError):
            trainer.TrainConfig(eps_clip=0.0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(beta_kl=-0.01)
        with pytest.raises(ValueError):
            trainer.TrainConfig(estimator="ppo")

    def test_presets(self):
        base = trainer.TrainConfig()
        grid = {name: trainer.apply_preset(base, name) for name in
                ("vgpo", "flow-grpo", "tcrm-only", "adae-only")}
        assert grid["vgpo"].tcrm_enabled and grid["vgpo"].k > 0
        assert grid["flow-grpo"].estimator == "flow-grpo"
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
                x0 = envsuite.sample_data(SMALL_TASK, None, rng, n=64)
                x1 = rng.standard_normal(x0.shape)
                tau = rng.uniform(0, 1, 64)
                ctx = rng.integers(0, 2, 64)
                loss, g = flowcore.fm_loss_and_grad(arch, params, x0, x1, tau, ctx)
                losses.append(loss)
                params, state = diffnet.adam_update(params, g, state, 1e-3)
            drops.append(np.mean(losses[:10]) - np.mean(losses[-10:]))
        assert np.median(drops) > 0

    def test_1d_gaussian_ode_mean_close_to_data_mean(self):
        task = envsuite.mode_preference_task(
            num_modes=1, context_count=1, state_dim=1, mode_var=0.25, centers=[[0.7]]
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
        cfg_grpo = replace(cfg, estimator="flow-grpo", tcrm_enabled=False, k=0.0)
        table = trainer.compute_advantages(batch, cfg_grpo)
        assert table.estimator == "flow-grpo"
        assert np.all(table.A == table.A[..., :1])

    def test_vgpo_uses_adae_on_cumulative_values(self, tiny_setup):
        cfg, _, batch = tiny_setup
        table = trainer.compute_advantages(batch, cfg)
        q = adv.cumulative_values(batch.instant_rewards, cfg.gamma)
        omega = adv.value_weights(q, cfg.eps_mean)
        want = adv.adae(q, cfg.k, omega, cfg.eps_std)
        assert np.array_equal(table.A, want.A)
        assert table.estimator == "vgpo-adae"

    def test_tcrm_disabled_uses_terminal_broadcast_with_unit_weights(self, tiny_setup):
        cfg, _, batch = tiny_setup
        cfg_off = replace(cfg, tcrm_enabled=False)
        table = trainer.compute_advantages(batch, cfg_off)
        terminal = batch.terminal_rewards
        q = np.tile(terminal[..., None], (1, 1, batch.num_steps))
        want = adv.adae(q, cfg.k, np.ones_like(q), cfg.eps_std)
        assert np.array_equal(table.A, want.A)


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
        table = trainer.compute_advantages(batch, cfg)
        res = trainer.surrogate_loss_and_grad(
            state.arch, state.triplet, batch, table, cfg.eps_clip, beta_kl=0.0
        )
        # freshly refreshed old policy: every recomputed ratio is 1 and the
        # surrogate value is the advantage mean
        assert abs(res.mean_ratio - 1.0) < 1e-10
        assert abs(res.value - table.A.mean()) < 1e-10
        assert res.clip_fraction == 0.0

    def test_on_policy_magnitude_bound(self, tiny_setup):
        # in the on-policy regime the per-element surrogate magnitude cannot
        # exceed (1 + eps) |A|; with ratios == 1 it equals |A| exactly
        cfg, state, batch = tiny_setup
        table = trainer.compute_advantages(batch, cfg)
        res = trainer.surrogate_loss_and_grad(
            state.arch, state.triplet, batch, table, cfg.eps_clip, beta_kl=0.0
        )
        assert abs(res.value) <= (1 + cfg.eps_clip) * np.abs(table.A).mean() + 1e-12

    def test_reference_policy_has_zero_kl(self, tiny_setup):
        cfg, state, batch = tiny_setup
        table = trainer.compute_advantages(batch, cfg)
        triplet = trainer.PolicyTriplet(
            theta=state.triplet.theta_ref.copy(),
            theta_old=state.triplet.theta_old.copy(),
            theta_ref=state.triplet.theta_ref.copy(),
        )
        res = trainer.surrogate_loss_and_grad(
            state.arch, triplet, batch, table, cfg.eps_clip, cfg.beta_kl
        )
        assert res.kl == 0.0

    def test_kl_nonnegative_off_reference(self, tiny_setup):
        cfg, state, batch = tiny_setup
        table = trainer.compute_advantages(batch, cfg)
        triplet = trainer.PolicyTriplet(
            theta=state.triplet.theta + 0.01,
            theta_old=state.triplet.theta_old,
            theta_ref=state.triplet.theta_ref,
        )
        res = trainer.surrogate_loss_and_grad(
            state.arch, triplet, batch, table, cfg.eps_clip, cfg.beta_kl
        )
        assert res.kl > 0.0

    def test_gradient_matches_finite_differences(self):
        # tiny net (<= 200 params) so central differences stay cheap
        task = SMALL_TASK
        arch = diffnet.for_task(2, 2, hidden_dims=(6,))
        assert diffnet.param_count(arch) <= 200
        theta = diffnet.init_params(arch, 5)
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=4)
        rm = envsuite.RewardModel(task)
        group = rollout.rollout_group(arch, theta, [1], 3, sched, rm, seeds=[(7, 0)])
        cfg = trainer.TrainConfig(
            task=task, hidden_dims=(6,), sampling_steps=4, group_size=3
        )
        table = trainer.compute_advantages(group, cfg)
        rng = np.random.default_rng(9)
        for shift in (0.0, 0.01):
            theta_cur = theta + shift * rng.standard_normal(theta.size)
            triplet = trainer.PolicyTriplet(
                theta=theta_cur, theta_old=theta.copy(),
                theta_ref=diffnet.init_params(arch, 12),
            )
            res = trainer.surrogate_loss_and_grad(arch, triplet, group, table, 0.2, 0.01)

            def value_at(t):
                trip = trainer.PolicyTriplet(t, theta.copy(), triplet.theta_ref)
                return trainer.surrogate_loss_and_grad(arch, trip, group, table, 0.2, 0.01).value

            fd = central_difference(value_at, theta_cur)
            assert max_rel_error(res.grad, fd) < 1e-5

    def test_deterministic_rollouts_rejected(self):
        arch = diffnet.for_task(2, 2, hidden_dims=(6,))
        theta = diffnet.init_params(arch, 5)
        sched = flowcore.NoiseSchedule(a=0.0, num_steps=4)
        rm = envsuite.RewardModel(SMALL_TASK)
        group = rollout.rollout_group(arch, theta, [0], 3, sched, rm, seeds=[1])
        cfg = trainer.TrainConfig(task=SMALL_TASK, hidden_dims=(6,), sampling_steps=4, group_size=3)
        triplet = trainer.PolicyTriplet(theta, theta.copy(), theta.copy())
        table = adv.adae(np.ones((1, 3, 4)), 0.5, np.ones((1, 3, 4)))
        with pytest.raises(ValueError, match="stochastic"):
            trainer.surrogate_loss_and_grad(arch, triplet, group, table, 0.2, 0.01)


def _inject_constant_rewards(batch, value):
    batch.instant_rewards[...] = value
    batch.terminal_rewards[...] = value


class TestStagnationContrast:
    def test_flow_grpo_update_is_exactly_zero(self, tiny_setup):
        cfg, state, _ = tiny_setup
        cfg_grpo = replace(cfg, estimator="flow-grpo", tcrm_enabled=False, k=0.0)
        fresh = trainer.init_state(cfg_grpo)
        fresh.triplet.refresh_old()
        batch = trainer.rollout_batch(fresh, 1)
        _inject_constant_rewards(batch, 0.8)
        table = trainer.compute_advantages(batch, cfg_grpo)
        assert np.all(table.A == 0.0)
        _, _, update_norm = trainer.update_policy(fresh, batch, table, 1)
        assert update_norm == 0.0

    def test_vgpo_update_is_nonzero(self, tiny_setup):
        cfg, _, _ = tiny_setup
        fresh = trainer.init_state(cfg)
        fresh.triplet.refresh_old()
        batch = trainer.rollout_batch(fresh, 1)
        _inject_constant_rewards(batch, 0.8)
        table = trainer.compute_advantages(batch, cfg)
        # degenerate columns engage the absolute-value limit
        assert np.all(table.A > 0.0)
        _, _, update_norm = trainer.update_policy(fresh, batch, table, 1)
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
        table = trainer.compute_advantages(batch, cfg)
        for b in range(batch.contexts.shape[0]):
            fields = ("contexts", "states", "noises", "logp_old", "instant_rewards", "terminal_rewards")
            group = replace(batch, **{name: getattr(batch, name)[b:b + 1] for name in fields})
            res = trainer.surrogate_loss_and_grad(
                state.arch, state.triplet, group, replace(table, A=table.A[b:b + 1]),
                cfg.eps_clip, cfg.beta_kl,
            )
            assert abs(res.mean_ratio - 1.0) < 1e-10


class TestNonFiniteGradient:
    def test_nan_advantage_stops_the_update(self, tiny_setup):
        cfg, _, _ = tiny_setup
        fresh = trainer.init_state(cfg)
        fresh.triplet.refresh_old()
        batch = trainer.rollout_batch(fresh, 5)
        table = trainer.compute_advantages(batch, cfg)
        poisoned = table.A.copy()
        poisoned[1, 0, 3] = np.nan
        # AdvantageTable rejects non-finite entries, so bypass its check
        object.__setattr__(table, "A", poisoned)
        theta_before = fresh.triplet.theta.copy()
        res = trainer.surrogate_loss_and_grad(
            fresh.arch, fresh.triplet, batch, table, cfg.eps_clip, cfg.beta_kl
        )
        assert res.nonfinite_contexts == (int(batch.contexts[1]),)
        with pytest.raises(RuntimeError, match=rf"step 5: contexts \[{batch.contexts[1]}\]"):
            trainer.update_policy(fresh, batch, table, 5)
        assert np.array_equal(fresh.triplet.theta, theta_before)
        assert fresh.adam.t == 0


class TestReductionEquivalence:
    def test_vgpo_degenerate_matches_flow_grpo_bitwise(self):
        # tcrm off + k = 0 (weights are ones by construction) must follow the
        # sparse estimator's parameter trajectory step for step
        base = small_config(train_steps=0)
        cfg_vgpo = replace(base, estimator="vgpo", tcrm_enabled=False, k=0.0)
        cfg_grpo = replace(base, estimator="flow-grpo", tcrm_enabled=False, k=0.0)
        state_a = trainer.init_state(cfg_vgpo)
        state_b = trainer.init_state(cfg_grpo)
        for step in range(1, 11):
            trainer.train_step(state_a, step)
            trainer.train_step(state_b, step)
            diff = np.max(np.abs(state_a.triplet.theta - state_b.triplet.theta))
            assert diff <= 1e-12


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
