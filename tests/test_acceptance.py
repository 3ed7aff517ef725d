"""Acceptance suite: every criterion prints one PASS/FAIL line.

One training matrix is built once per session: `flowrl ablate` for each of 5
seeds, four presets of the default 1000 steps each, run as `python -m flowrl`
child processes two at a time. The training-efficacy criteria read its
series up to step 500; the default-length report prints, ungated, what they
do not see, and the dense-reward fidelity report reads vgpo's parameters at
step 600.
"""

import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from flowrl import advantage as adv
from flowrl import diffnet, envsuite, flowcore, harness, rollout, trainer

from _oracles import (
    central_difference,
    discounted_sum,
    fm_kernel_loss_and_grad,
    group_normalize,
    grpo_advantages,
    max_rel_error,
    mc_value,
    reference_euler_states,
    reference_means_at,
    reference_velocity,
    reference_velocity_at,
    surrogate_at,
    wasserstein1_1d,
)

SEEDS = (1, 2, 3, 4, 5)
EFFICACY_STEPS = 500
# the default train_steps, where vgpo's reward drifts down after its peak
REPORT_STEPS = trainer.TrainConfig().train_steps
# the fidelity report's thetas: vgpo's checkpoints of these seeds at this step, in its drift
FIDELITY_SEEDS, FIDELITY_STEP = (1, 3), 600
# two children on the two cores the suite is sized for, each single-threaded:
# a threaded BLAS product in one child would idle-spin a core the other needs
MATRIX_WORKERS = 2


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number:2d} {name}: {status}{suffix}")


def ablate_matrix(root):
    """Each seed's `flowrl ablate` run at ``REPORT_STEPS`` under ``root``: the
    metric series keyed (preset, seed), and per seed vgpo's pretrained
    parameters and its checkpoint at ``FIDELITY_STEP``. The runs are child
    processes of the imported package, ``MATRIX_WORKERS`` at a time; their
    output bytes do not depend on the BLAS thread count."""
    config = root / "config.json"
    config.write_text(json.dumps({"train_steps": REPORT_STEPS, "checkpoint_every": FIDELITY_STEP}))
    src = str(Path(harness.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")

    def ablate(seed):
        argv = ["ablate", "--config", str(config), "--seed", str(seed), "--out-dir", str(root / str(seed))]
        return subprocess.run([sys.executable, "-m", "flowrl", *argv], env=env, capture_output=True, text=True)

    with ThreadPoolExecutor(MATRIX_WORKERS) as pool:
        procs = list(pool.map(ablate, SEEDS))
    series, thetas = {}, {}
    for seed, proc in zip(SEEDS, procs):
        assert proc.returncode == 0, f"flowrl ablate --seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        out = root / str(seed)
        for preset in harness.PRESET_NAMES:
            series[(preset, seed)] = harness.load_metrics(out / preset)
        names = ("checkpoint_pretrained.json", f"checkpoint_step{FIDELITY_STEP}.json")
        thetas[seed] = tuple(diffnet.load_checkpoint(out / "vgpo" / name)[1] for name in names)
    return series, thetas


@pytest.fixture(scope="session")
def default_length_matrix(tmp_path_factory):
    """The matrix at the default run length, ``REPORT_STEPS``."""
    return ablate_matrix(tmp_path_factory.mktemp("default-length"))


def at_efficacy_steps(matrix):
    """The criteria's view of the matrix: every series cut at
    ``EFFICACY_STEPS`` and each seed's phenomena report rebuilt from its cut
    vgpo and flow-grpo series. Every draw is keyed by (seed, stream, step),
    so a cut series is the series of a run of ``EFFICACY_STEPS`` steps."""
    series = {key: [r for r in records if r.step <= EFFICACY_STEPS] for key, records in matrix[0].items()}
    reports = {
        seed: harness.reproduce_phenomena({preset: series[(preset, seed)] for preset in ("vgpo", "flow-grpo")})
        for seed in SEEDS
    }
    return series, reports


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
        _, g_fm = fm_kernel_loss_and_grad(arch, theta, x0, x1, tau2, ctx2)
        fd_fm = central_difference(
            lambda t: fm_kernel_loss_and_grad(arch, t, x0, x1, tau2, ctx2)[0], theta
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
        group = rollout.rollout_group(arch_s, theta_s, [1], 3, schedule, seeds=[(7, 0)])
        cfg = trainer.TrainConfig(task=task, hidden_dims=(6,), sampling_steps=4, group_size=3)
        advantages = trainer.compute_advantages(trainer.instant_rewards(task, group, group.hs[-1]), cfg)
        theta_ref = diffnet.init_params(arch_s, 12)
        ref_mean = reference_means_at(arch_s, theta_ref, group)
        res = surrogate_at(arch_s, theta_s.copy(), group, advantages, ref_mean, 0.2, 0.01)
        fd_s = central_difference(
            lambda t: surrogate_at(arch_s, t, group, advantages, ref_mean, 0.2, 0.01).value, theta_s
        )
        errors["surrogate"] = max_rel_error(res.grad, fd_s)

        worst = max(errors.values())
        ok = worst < 1e-5
        report(2, "gradient checks vs central differences", ok,
               ", ".join(f"{k} {v:.2e}" for k, v in errors.items()))
        assert ok


class TestCriterion3SamplerReductions:
    def test_ode_reduction_and_final_instant_reward(self):
        config = trainer.TrainConfig(hidden_dims=(16,), pretrain_steps=300, seed=3, pretrain_batch=64)
        task, arch, params = config.task, config.architecture(), trainer.pretrain(config)

        # deterministic reduction: whole groups re-integrated by the Euler
        # oracle must be bit-identical
        sched0 = flowcore.NoiseSchedule(a=0.0, num_steps=10)
        bitwise_ok = True
        for i in range(20):
            group = rollout.rollout_group(arch, params, [i % 8], 8, sched0, seeds=[(30, i)])
            states = group.states[0]
            euler = reference_euler_states(arch, params, states[:, 0], i % 8, 10)
            bitwise_ok = bitwise_ok and bool(np.array_equal(euler, states))

        # 1000-rollout fuzz: the last instant reward is the terminal reward
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        exact = 0
        total = 0
        for i in range(125):
            group = rollout.rollout_group(arch, params, [i % 8], 8, sched, seeds=[(31, i)])
            terminals = envsuite.reward(task, group.states[0, :, -1], i % 8)
            for instant, terminal in zip(trainer.instant_rewards(task, group, group.hs[-1])[0], terminals):
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
        _, arch, params = two_mode_1d
        distances = {}
        for a in (0.1, 0.3, 0.7):
            sched = flowcore.NoiseSchedule(a=a, num_steps=10)
            ode, = flowcore.sample_terminal_ode(arch, params, sched, [0], 10000, [np.random.default_rng(41)])
            seeds = [(42, i) for i in range(1250)]
            sde = rollout.rollout_group(arch, params, [0] * 1250, 8, sched, seeds).states[:, :, -1]
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
        pretrained = trainer.pretrain(cfg)
        state_a = trainer.init_state(cfg, pretrained)
        state_b = trainer.init_state(cfg, pretrained)
        worst = 0.0
        for step in range(1, 51):
            batch = trainer.rollout_batch(state_a, step)
            terminal = trainer.instant_rewards(cfg.task, batch, batch.hs[-1])[..., -1]
            advantages = np.stack([grpo_advantages(r, batch.num_steps, cfg.eps_std) for r in terminal])
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
        pretrained = trainer.pretrain(cfg_vgpo)
        norms = {}
        for name, cfg in (("flow-grpo", cfg_grpo), ("vgpo", cfg_vgpo)):
            state = trainer.init_state(cfg, pretrained)
            batch = trainer.rollout_batch(state, 1)
            # every instant and terminal reward 0.8
            advantages = trainer.compute_advantages(np.full(batch.logp_old.shape, 0.8), cfg)
            _, _, norms[name] = trainer.update_policy(state, batch, advantages, 1)
        ok = norms["flow-grpo"] == 0.0 and norms["vgpo"] >= 1e-6
        report(6, "stagnation contrast on uniform sub-maximal rewards", ok,
               f"flow-grpo {norms['flow-grpo']:.1e}, vgpo {norms['vgpo']:.1e}")
        assert ok


def _median_final_and_gain(series, preset):
    runs = [series[(preset, seed)] for seed in SEEDS]
    return (statistics.median(r[-1].mean_reward for r in runs),
            statistics.median(r[-1].mean_reward - r[0].mean_reward for r in runs))


@pytest.mark.slow
class TestCriterion7TrainingEfficacy:
    def test_vgpo_matches_or_beats_baseline_and_both_learn(self, default_length_matrix):
        series, _ = at_efficacy_steps(default_length_matrix)
        vgpo_final, vgpo_gain = _median_final_and_gain(series, "vgpo")
        grpo_final, grpo_gain = _median_final_and_gain(series, "flow-grpo")
        ok = vgpo_final >= grpo_final and vgpo_gain >= 0.2 and grpo_gain >= 0.2
        report(7, "training efficacy at step 500 (median of 5 seeds)", ok,
               f"vgpo {vgpo_final:.3f} (+{vgpo_gain:.3f}), flow-grpo {grpo_final:.3f} (+{grpo_gain:.3f})")
        # the paper's ablation of VGPO's two parts, printed without a gate
        for preset in ("tcrm-only", "adae-only"):
            final, gain = _median_final_and_gain(series, preset)
            print(f"  {preset} {final:.3f} (+{gain:.3f})")
        assert ok


@pytest.mark.slow
class TestCriterion8ConvergenceSpeed:
    def test_dense_rewards_reach_threshold_no_later(self, default_length_matrix):
        _, reports = at_efficacy_steps(default_length_matrix)
        vgpo_median = statistics.median(reports[s]["steps_to_threshold"]["vgpo"] for s in SEEDS)
        grpo_median = statistics.median(reports[s]["steps_to_threshold"]["flow-grpo"] for s in SEEDS)
        ok = vgpo_median <= grpo_median
        report(8, "convergence speed to 80% of final reward", ok,
               f"vgpo median {vgpo_median}, flow-grpo median {grpo_median}")
        assert ok


@pytest.mark.slow
class TestCriterion9RewardHackingMonitor:
    def test_quality_drop_at_matched_reward(self, default_length_matrix):
        _, reports = at_efficacy_steps(default_length_matrix)
        drops = {"vgpo": [], "flow-grpo": []}
        print("\n  seed  matched_r  vgpo_drop  flow-grpo_drop")
        for seed in SEEDS:
            rep = reports[seed]["reward_hacking"]
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


@pytest.mark.slow
class TestDefaultLengthReport:
    def test_report_reward_kl_and_quality_at_the_default_length(self, default_length_matrix):
        # report only, no gate: the reward at the criteria's step and at the
        # end, the peak, the mean over the last quarter of the run, and the
        # KL and quality at the end, per seed and as the median of 5 seeds
        series, _ = default_length_matrix
        half, quarter = REPORT_STEPS // 2, 3 * REPORT_STEPS // 4
        print(f"\n  preset     seed  r@{half}  r@{REPORT_STEPS}  peak   r>{quarter}  kl@{REPORT_STEPS}  quality@{REPORT_STEPS}")
        for preset in harness.PRESET_NAMES:
            rows = []
            for seed in SEEDS:
                records = series[(preset, seed)]
                at = {r.step: r for r in records}
                assert records[-1].step == REPORT_STEPS
                rows.append((
                    at[half].mean_reward, at[REPORT_STEPS].mean_reward, max(r.mean_reward for r in records),
                    statistics.mean(r.mean_reward for r in records if r.step > quarter),
                    at[REPORT_STEPS].kl_mean, at[REPORT_STEPS].quality_mean,
                ))
            for seed, row in [*zip(SEEDS, rows), ("median", [statistics.median(c) for c in zip(*rows)])]:
                print(f"  {preset:<10} {seed:>6}  {row[0]:5.3f}  {row[1]:6.3f}  {row[2]:5.3f}  {row[3]:6.3f}"
                      f"  {row[4]:7.2f}  {row[5]:+11.2f}")


@pytest.mark.slow
class TestDenseRewardFidelityReport:
    def test_report_policy_and_reference_projections_against_the_monte_carlo_value(self, default_length_matrix):
        # report only, no gate: per seed, 400 rollouts of theta's SDE on
        # context 0 at vgpo's theta after FIDELITY_STEP steps, with V(s_t)
        # from 128 continuations of that same SDE, against R_proj projected
        # by theta's own velocity (the rollout's pass) and by theta_ref's (the
        # reference pass), both scored by trainer.instant_rewards
        cfg = trainer.TrainConfig()
        task, arch, sched, t_steps = cfg.task, cfg.architecture(), cfg.schedule(), cfg.sampling_steps
        print(f"\n  seed  tau  mean V  policy bias  policy corr  reference bias  reference corr  (step {FIDELITY_STEP})")
        for seed in FIDELITY_SEEDS:
            theta_ref, theta = default_length_matrix[1][seed]
            batch = rollout.rollout_group(arch, theta, [0] * 50, 8, sched, [(seed, slot) for slot in range(50)])
            projections = (
                trainer.instant_rewards(task, batch, batch.hs[-1]),
                trainer.instant_rewards(task, batch, reference_velocity_at(arch, theta_ref, batch)),
            )

            def field(x, tau):
                return reference_velocity(arch, theta, x, tau, 0)

            mc_rng = np.random.default_rng(seed)
            for t in (9, 7, 5, 2):
                s = batch.states[:, :, t_steps - t].reshape(-1, task.state_dim)
                value = mc_value(task, field, s, t, sched, 128, mc_rng)
                cells = []
                for rewards in projections:
                    r_proj = rewards[:, :, t_steps - 1 - t].ravel()
                    cells += [float((r_proj - value).mean()), np.corrcoef(r_proj, value)[0, 1]]
                print(f"  {seed:4d}  {t / t_steps:.1f}  {value.mean():6.3f}  {cells[0]:+11.3f}  {cells[1]:11.3f}"
                      f"  {cells[2]:+14.3f}  {cells[3]:14.3f}")


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
