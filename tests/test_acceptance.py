"""Acceptance suite: every criterion prints one PASS/FAIL line.

The training-efficacy criteria share one 5-seed training matrix (vgpo and
flow-grpo presets, 500 steps each) built once per session.
"""

import json
import statistics
from dataclasses import replace

import numpy as np
import pytest

from flowrl import advantage as adv
from flowrl import diffnet, envsuite, flowcore, harness, rollout, trainer

from _oracles import (
    central_difference,
    discounted_sum,
    group_normalize,
    grpo_advantages,
    max_rel_error,
    reference_euler_states,
    wasserstein1_1d,
)

SEEDS = (1, 2, 3, 4, 5)
EFFICACY_STEPS = 500


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number:2d} {name}: {status}{suffix}")


@pytest.fixture(scope="session")
def training_matrix():
    """Metric series for (preset, seed) over 500 training steps."""
    matrix = {}
    base = trainer.TrainConfig(train_steps=EFFICACY_STEPS)
    for seed in SEEDS:
        for preset in ("vgpo", "flow-grpo"):
            config = replace(trainer.apply_preset(base, preset), seed=seed)
            matrix[(preset, seed)] = trainer.run(config).metrics
    return matrix


class TestCriterion1EquationOracles:
    def test_cumulative_value_recursion_vs_direct_summation(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            t_steps = int(rng.integers(1, 16))
            gamma = float(rng.uniform(0.0, 0.999))
            rewards = rng.uniform(0.0, 1.0, t_steps)
            got = adv.cumulative_values(rewards, gamma)
            worst = max(worst, float(np.max(np.abs(got - discounted_sum(rewards, gamma)))))
        ok = worst < 1e-12
        report(1, "equation oracle: value recursion vs direct summation", ok, f"max err {worst:.2e}")
        assert ok

    def test_adae_decomposition(self):
        rng = np.random.default_rng(102)
        worst = 0.0
        for _ in range(1000):
            g_size = int(rng.integers(2, 12))
            t_steps = int(rng.integers(1, 12))
            q = rng.uniform(0.0, 1.0, (g_size, t_steps))
            omega = rng.uniform(0.25, 2.0, (g_size, t_steps))
            k = float(rng.uniform(0.0, 2.0))
            table = adv.adae(q, k, omega)
            rebuilt = omega * (group_normalize(q, adv.DEFAULT_EPS_STD) + k * q)
            live = q.std(axis=0) >= adv.DEFAULT_EPS_STD
            if live.any():
                worst = max(worst, float(np.max(np.abs(table[:, live] - rebuilt[:, live]))))
        ok = worst < 1e-10
        report(1, "equation oracle: adaptive dual decomposition", ok, f"max err {worst:.2e}")
        assert ok

    def test_grpo_normalization_identity(self):
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(1000):
            g_size = int(rng.integers(2, 16))
            rewards = rng.uniform(0.0, 1.0, g_size)
            if rewards.std() <= adv.DEFAULT_EPS_STD:
                continue
            tiled = np.tile(rewards[:, None], (1, 3))
            table = adv.adae(tiled, 0.0, np.ones_like(tiled))
            for j in range(3):
                worst = max(worst, abs(float(table[:, j].mean())))
                worst = max(worst, abs(float(table[:, j].std()) - 1.0))
        ok = worst < 1e-10
        report(1, "equation oracle: group normalization mean 0 / std 1", ok, f"max dev {worst:.2e}")
        assert ok


class TestCriterion2GradientChecks:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(201)
        errors = {}

        arch = diffnet.Architecture(input_dim=7, hidden_dims=(8,), output_dim=2)
        assert diffnet.param_count(arch) <= 200
        theta = 0.5 * rng.standard_normal(diffnet.param_count(arch))
        x = rng.standard_normal((4, 2))
        tau = rng.uniform(0, 1, 4)
        ctx = rng.integers(0, 2, 4)
        upstream = rng.standard_normal((4, 2))
        got, _ = diffnet.grad(arch, theta, x, tau, ctx, upstream)
        fd = central_difference(
            lambda t: float((np.atleast_2d(diffnet.forward(arch, t, x, tau, ctx)) * upstream).sum()),
            theta,
        )
        errors["net"] = max_rel_error(got, fd)

        x0 = rng.standard_normal((5, 2))
        x1 = rng.standard_normal((5, 2))
        tau2 = rng.uniform(0, 1, 5)
        ctx2 = rng.integers(0, 2, 5)
        _, g_fm = flowcore.fm_loss_and_grad(arch, theta, x0, x1, tau2, ctx2)
        fd_fm = central_difference(
            lambda t: flowcore.fm_loss_and_grad(arch, t, x0, x1, tau2, ctx2)[0], theta
        )
        errors["flow-matching"] = max_rel_error(g_fm, fd_fm)

        task = envsuite.TaskSpec(
            num_modes=2, radius=1.5, mode_var=0.09, context_count=2, state_dim=2,
            mode_centers=[[1.5, 0.0], [-1.5, 0.0]],
        )
        arch_s = diffnet.for_task(2, 2, hidden_dims=(6,))
        assert diffnet.param_count(arch_s) <= 200
        theta_s = diffnet.init_params(arch_s, 5)
        schedule = flowcore.NoiseSchedule(a=0.7, num_steps=4)
        group = rollout.rollout_group(arch_s, theta_s, [1], 3, schedule, task, seeds=[(7, 0)])
        cfg = trainer.TrainConfig(task=task, hidden_dims=(6,), sampling_steps=4, group_size=3)
        advantages = trainer.compute_advantages(group, cfg)
        theta_ref = diffnet.init_params(arch_s, 12)
        res = trainer.surrogate_loss_and_grad(arch_s, theta_s.copy(), theta_ref, group, advantages, 0.2, 0.01)
        fd_s = central_difference(
            lambda t: trainer.surrogate_loss_and_grad(arch_s, t, theta_ref, group, advantages, 0.2, 0.01).value,
            theta_s,
        )
        errors["surrogate"] = max_rel_error(res.grad, fd_s)

        worst = max(errors.values())
        ok = worst < 1e-5
        report(2, "gradient checks vs central differences", ok,
               ", ".join(f"{k} {v:.2e}" for k, v in errors.items()))
        assert ok


class TestCriterion3SamplerReductions:
    def test_ode_reduction_and_final_instant_reward(self):
        task = envsuite.TaskSpec()
        arch = diffnet.for_task(task.state_dim, task.context_count, hidden_dims=(16,))
        params = trainer.pretrain(arch, task, steps=300, seed=3, batch_size=64)

        # deterministic reduction: whole groups re-integrated by the Euler
        # oracle must be bit-identical
        sched0 = flowcore.NoiseSchedule(a=0.0, num_steps=10)
        bitwise_ok = True
        for i in range(20):
            group = rollout.rollout_group(arch, params, [i % 8], 8, sched0, task, seeds=[(30, i)])
            states = group.states[0]
            euler = reference_euler_states(arch, params, states[:, 0], i % 8, 10)
            bitwise_ok = bitwise_ok and bool(np.array_equal(euler, states))

        # 1000-rollout fuzz: the last instant reward is the terminal reward
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        exact = 0
        total = 0
        for i in range(125):
            group = rollout.rollout_group(arch, params, [i % 8], 8, sched, task, seeds=[(31, i)])
            for instant, terminal in zip(group.instant_rewards[0], group.terminal_rewards[0]):
                total += 1
                exact += instant[-1] == terminal
        ok = bitwise_ok and exact == total == 1000
        report(3, "sampler reductions (a=0 bitwise, R_1 == terminal)", ok,
               f"{exact}/{total} exact terminals")
        assert ok


class TestCriterion4MarginalPreservation:
    def test_wasserstein_ode_vs_sde(self, two_mode_1d):
        # 10000 evaluation ODE samples against the terminal states of 1250
        # rollout groups of 8
        task, arch, params = two_mode_1d
        distances = {}
        for a in (0.1, 0.3, 0.7):
            sched = flowcore.NoiseSchedule(a=a, num_steps=10)
            ode = flowcore.sample_terminal_ode(arch, params, sched, 0, 10000, np.random.default_rng(41))
            seeds = [(42, i) for i in range(1250)]
            sde = rollout.rollout_group(arch, params, [0] * 1250, 8, sched, task, seeds).states[:, :, -1]
            distances[a] = wasserstein1_1d(ode, sde)
        ok = all(d < 0.1 for d in distances.values())
        report(4, "marginal preservation (W1 ODE vs SDE < 0.1)", ok,
               ", ".join(f"a={a}: {d:.3f}" for a, d in distances.items()))
        assert ok


class TestCriterion5ReductionEquivalence:
    def test_degenerate_vgpo_tracks_flow_grpo_for_50_steps(self):
        # the flow-grpo preset (tcrm off, k = 0) against an update loop driven
        # by GRPO's group-normalized terminal rewards
        base = trainer.TrainConfig(train_steps=0, pretrain_steps=500, eval_samples=32, seed=7)
        cfg = trainer.apply_preset(base, "flow-grpo")
        state_a = trainer.init_state(cfg)
        state_b = trainer.init_state(cfg)
        worst = 0.0
        for step in range(1, 51):
            batch = trainer.rollout_batch(state_a, step)
            advantages = np.stack(
                [grpo_advantages(r, batch.num_steps, cfg.eps_std) for r in batch.terminal_rewards]
            )
            trainer.update_policy(state_a, batch, advantages, step)
            trainer.train_step(state_b, step)
            worst = max(worst, float(np.max(np.abs(state_a.theta - state_b.theta))))
        ok = worst <= 1e-12
        report(5, "reduction equivalence over 50 steps", ok, f"max param gap {worst:.2e}")
        assert ok


class TestCriterion6StagnationContrast:
    def test_constructed_uniform_groups(self):
        cfg_vgpo = trainer.TrainConfig(pretrain_steps=300, pretrain_batch=64)
        cfg_grpo = trainer.apply_preset(cfg_vgpo, "flow-grpo")
        norms = {}
        for name, cfg in (("flow-grpo", cfg_grpo), ("vgpo", cfg_vgpo)):
            state = trainer.init_state(cfg)
            batch = trainer.rollout_batch(state, 1)
            batch.instant_rewards[...] = 0.8
            batch.terminal_rewards[...] = 0.8
            advantages = trainer.compute_advantages(batch, cfg)
            _, _, norms[name] = trainer.update_policy(state, batch, advantages, 1)
        ok = norms["flow-grpo"] == 0.0 and norms["vgpo"] >= 1e-6
        report(6, "stagnation contrast on uniform sub-maximal rewards", ok,
               f"flow-grpo {norms['flow-grpo']:.1e}, vgpo {norms['vgpo']:.1e}")
        assert ok


def _median_improvement(matrix, preset):
    return statistics.median(
        matrix[(preset, seed)][-1].mean_reward - matrix[(preset, seed)][0].mean_reward
        for seed in SEEDS
    )


class TestCriterion7TrainingEfficacy:
    def test_vgpo_matches_or_beats_baseline_and_both_learn(self, training_matrix):
        vgpo_final = statistics.median(
            training_matrix[("vgpo", s)][-1].mean_reward for s in SEEDS
        )
        grpo_final = statistics.median(
            training_matrix[("flow-grpo", s)][-1].mean_reward for s in SEEDS
        )
        vgpo_gain = _median_improvement(training_matrix, "vgpo")
        grpo_gain = _median_improvement(training_matrix, "flow-grpo")
        ok = vgpo_final >= grpo_final and vgpo_gain >= 0.2 and grpo_gain >= 0.2
        report(7, "training efficacy at step 500 (median of 5 seeds)", ok,
               f"vgpo {vgpo_final:.3f} (+{vgpo_gain:.3f}), flow-grpo {grpo_final:.3f} (+{grpo_gain:.3f})")
        assert ok


class TestCriterion8ConvergenceSpeed:
    def test_dense_rewards_reach_threshold_no_later(self, training_matrix):
        steps = {"vgpo": [], "flow-grpo": []}
        for seed in SEEDS:
            pair = {
                "vgpo": training_matrix[("vgpo", seed)],
                "flow-grpo": training_matrix[("flow-grpo", seed)],
            }
            rep = harness.reproduce_phenomena(pair)["steps_to_threshold"]
            steps["vgpo"].append(rep["vgpo"])
            steps["flow-grpo"].append(rep["flow-grpo"])
        vgpo_median = statistics.median(steps["vgpo"])
        grpo_median = statistics.median(steps["flow-grpo"])
        ok = vgpo_median <= grpo_median
        report(8, "convergence speed to 80% of final reward", ok,
               f"vgpo median {vgpo_median}, flow-grpo median {grpo_median}")
        assert ok


class TestCriterion9RewardHackingMonitor:
    def test_quality_drop_at_matched_reward(self, training_matrix):
        drops = {"vgpo": [], "flow-grpo": []}
        print("\n  seed  matched_r  vgpo_drop  flow-grpo_drop")
        for seed in SEEDS:
            pair = {
                "vgpo": training_matrix[("vgpo", seed)],
                "flow-grpo": training_matrix[("flow-grpo", seed)],
            }
            rep = harness.reproduce_phenomena(pair)["reward_hacking"]
            v = rep["runs"]["vgpo"]["quality_drop"]
            g = rep["runs"]["flow-grpo"]["quality_drop"]
            drops["vgpo"].append(v)
            drops["flow-grpo"].append(g)
            print(f"  {seed:4d}  {rep['matched_reward']:9.3f}  {v:9.3f}  {g:14.3f}")
        vgpo_median = statistics.median(drops["vgpo"])
        grpo_median = statistics.median(drops["flow-grpo"])
        ok = vgpo_median <= grpo_median
        report(9, "reward-hacking monitor (quality drop at matched reward)", ok,
               f"vgpo median {vgpo_median:.3f} <= flow-grpo median {grpo_median:.3f}: {ok}")
        assert ok


class TestCriterion10Determinism:
    def test_cli_runs_byte_identical(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "task_num_modes": 2,
            "task_context_count": 2,
            "task_radius": 1.5,
            "hidden_dims": [8],
            "group_size": 4,
            "sampling_steps": 5,
            "train_steps": 6,
            "batch_contexts": 2,
            "pretrain_steps": 100,
            "pretrain_batch": 32,
            "eval_samples": 16,
            "eval_every": 3,
        }))
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = harness.cli(
                ["train", "--config", str(config), "--seed", "9", "--out-dir", str(out)]
            )
            assert code == 0
            payloads.append(
                (out / "metrics.jsonl").read_bytes() + (out / "config.json").read_bytes()
            )
        ok = payloads[0] == payloads[1]
        report(10, "CLI determinism (byte-identical metrics)", ok)
        assert ok
