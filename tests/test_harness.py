import dataclasses
import json
import re
import typing
from pathlib import Path

import pytest

from flowrl import diffnet, envsuite, harness, trainer
from flowrl.records import MetricRecord

README = Path(__file__).resolve().parent.parent / "README.md"
# the ```json block after "Each `metrics.jsonl` line is one evaluation record:"
README_METRICS_EXAMPLE = (
    README.read_text().split("Each `metrics.jsonl` line is one evaluation record:", 1)[1]
    .split("```json\n", 1)[1].split("```", 1)[0]
)

TINY_CONFIG = {
    "task_num_modes": 2,
    "task_context_count": 2,
    "task_radius": 1.5,
    "hidden_dims": [8],
    "group_size": 4,
    "sampling_steps": 5,
    "train_steps": 4,
    "batch_contexts": 2,
    "pretrain_steps": 100,
    "pretrain_batch": 32,
    "eval_samples": 16,
    "eval_every": 2,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParseConfig:
    def test_empty_file_gives_documented_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = harness.parse_config(path)
        assert cfg == trainer.TrainConfig()

    def test_gamma_out_of_range_rejected(self, tmp_path):
        path = write_config(tmp_path, {"gamma": 1.5})
        with pytest.raises(harness.ConfigError, match="gamma"):
            harness.parse_config(path)

    def test_zero_noise_level_rejected_before_the_run_starts(self, tmp_path, capsys):
        # policy optimization needs stochastic rollouts: the config fails at
        # parse time, before pretraining or any run file; so do a noise level
        # whose step variance underflows to 0, which the schedule rejects, and
        # hidden widths below 1, which the architecture rejects
        for bad, key in (
            ({"noise_level": 0.0}, "noise_level"),
            ({"noise_level": 1e-170}, "noise level"),
            ({"hidden_dims": [0]}, "hidden layer widths"),
        ):
            with pytest.raises(harness.ConfigError, match=key):
                harness.config_from_dict(bad)
            config = write_config(tmp_path, {**bad, "pretrain_steps": 200, "train_steps": 5})
            out = tmp_path / "out"
            assert harness.cli(["train", "--config", str(config), "--out-dir", str(out)]) == 1
            assert key in capsys.readouterr().err
            assert not out.exists()

    def test_non_finite_numbers_rejected_before_the_run_starts(self, tmp_path, capsys):
        # json reads NaN and Infinity; a one-sided range check lets them through
        float_keys = [key for key, (_, kind) in harness._TASK_KEYS.items() if kind is float]
        float_keys += [key for key, kind in harness._TRAIN_KEYS.items() if kind is float]
        assert {"task_radius", "task_sharpness", "k", "lr", "noise_level"} <= set(float_keys)
        for key in float_keys:
            for value in ("NaN", "Infinity", "-Infinity", "1" + "0" * 400):
                path = tmp_path / "config.json"
                path.write_text(f'{{"{key}": {value}}}')
                with pytest.raises(harness.ConfigError, match=key):
                    harness.parse_config(path)
        path.write_text('{"k": NaN, "pretrain_steps": 200, "train_steps": 5}')
        out = tmp_path / "out"
        assert harness.cli(["train", "--config", str(path), "--out-dir", str(out)]) == 1
        assert "'k'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"grou_size": 8})
        with pytest.raises(harness.ConfigError, match="grou_size"):
            harness.parse_config(path)

    def test_type_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path, {"group_size": "eight"})
        with pytest.raises(harness.ConfigError, match="group_size"):
            harness.parse_config(path)
        path = write_config(tmp_path, {"tcrm_enabled": 1}, name="c2.json")
        with pytest.raises(harness.ConfigError, match="tcrm_enabled"):
            harness.parse_config(path)

    def test_estimator_key_rejected(self, tmp_path):
        # flow-grpo is the tcrm_enabled/k switches, not a key of its own
        path = write_config(tmp_path, {"estimator": "flow-grpo"})
        with pytest.raises(harness.ConfigError, match="estimator"):
            harness.parse_config(path)

    def test_round_trip_effective_config(self, tmp_path):
        path = write_config(tmp_path, dict(TINY_CONFIG, tcrm_enabled=False, k=0.0))
        cfg = harness.parse_config(path)
        emitted = harness.config_to_dict(cfg)
        reparsed = harness.config_from_dict(emitted)
        assert harness.config_to_dict(reparsed) == emitted
        assert reparsed == cfg

    def test_task_keys_written_back_as_given(self):
        # keys a task ignores (ring ignores task_radius, half-plane ignores
        # task_num_modes) are written back too, not rebuilt from its centers
        for raw in (
            {"task": "ring", "task_radius": 5.0, "task_ring_radius": 2.5},
            {"task": "half-plane", "task_num_modes": 3, "task_radius": 0.75},
        ):
            cfg = harness.config_from_dict(dict(raw, task_context_count=1))
            emitted = harness.config_to_dict(cfg)
            assert {key: emitted[key] for key in raw} == raw
            assert harness.config_from_dict(emitted) == cfg

    def test_ring_task_needs_two_dimensions(self):
        with pytest.raises(harness.ConfigError, match="ring task needs state_dim 2"):
            harness.config_from_dict({"task": "ring", "task_state_dim": 3})

    def test_explicit_mode_centers_have_no_config_form(self):
        task = envsuite.TaskSpec(num_modes=2, context_count=2, mode_centers=((-1.5, 0.0), (1.5, 0.0)))
        with pytest.raises(ValueError, match="mode_centers"):
            harness.config_to_dict(trainer.TrainConfig(task=task))
        with pytest.raises(harness.ConfigError, match="mode_centers"):
            harness.config_from_dict({"task_mode_centers": [[-1.5, 0.0], [1.5, 0.0]]})

    def test_task_variants_constructible(self, tmp_path):
        for name in ("half-plane", "ring"):
            path = write_config(tmp_path, {"task": name, "task_context_count": 1}, name=f"{name}.json")
            cfg = harness.parse_config(path)
            assert cfg.task.name == name

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(harness.ConfigError, match="JSON"):
            harness.parse_config(path)


# every config key at a value other than its default
NON_DEFAULT_CONFIG = {
    "task": "half-plane",
    "task_state_dim": 3,
    "task_num_modes": 4,
    "task_radius": 1.25,
    "task_mode_var": 0.2,
    "task_context_count": 2,
    "task_sharpness": 1.5,
    "task_ring_radius": 2.5,
    "hidden_dims": [16, 8],
    "group_size": 6,
    "sampling_steps": 7,
    "train_steps": 12,
    "batch_contexts": 3,
    "gamma": 0.8,
    "k": 0.25,
    "noise_level": 0.5,
    "eps_clip": 0.3,
    "beta_kl": 0.02,
    "lr": 0.002,
    "tcrm_enabled": False,
    "seed": 5,
    "inner_epochs": 2,
    "pretrain_steps": 50,
    "pretrain_lr": 0.0005,
    "pretrain_batch": 16,
    "eval_every": 3,
    "eval_samples": 32,
    "accuracy_threshold": 0.6,
    "shared_initial_noise": True,
    "checkpoint_every": 4,
    "eps_std": 1e-07,
    "eps_mean": 1e-05,
}


class TestConfigSchema:
    def test_every_train_field_is_a_key_in_field_order(self):
        keys = [key for key in harness.config_to_dict(trainer.TrainConfig()) if not key.startswith("task")]
        fields = [f.name for f in dataclasses.fields(trainer.TrainConfig) if f.name != "task"]
        assert keys == fields

    def test_every_task_field_is_a_key_in_field_order(self):
        keys = [key for key in harness.config_to_dict(trainer.TrainConfig()) if key.startswith("task")]
        fields = [f.name for f in dataclasses.fields(envsuite.TaskSpec) if f.name != "mode_centers"]
        assert keys == ["task"] + [f"task_{name}" for name in fields[1:]]
        assert fields[0] == "name"

    def test_non_default_values_round_trip(self):
        defaults = harness.config_to_dict(trainer.TrainConfig())
        assert list(NON_DEFAULT_CONFIG) == list(defaults)
        assert all(NON_DEFAULT_CONFIG[key] != defaults[key] for key in defaults)
        cfg = harness.config_from_dict(NON_DEFAULT_CONFIG)
        assert cfg.hidden_dims == (16, 8) and cfg.eps_mean == 1e-05 and cfg.shared_initial_noise
        emitted = harness.config_to_dict(cfg)
        assert emitted == NON_DEFAULT_CONFIG
        assert harness.config_from_dict(emitted) == cfg

    def test_flow_grpo_preset_is_a_plain_replace(self):
        base = trainer.TrainConfig()
        assert dataclasses.replace(base, tcrm_enabled=False, k=0.0) == trainer.apply_preset(base, "flow-grpo")
        hints = typing.get_type_hints(trainer.TrainConfig)
        assert not any(type(None) in typing.get_args(hint) for hint in hints.values())

    def test_readme_default_config_block(self):
        # the jsonc block under "## Configuration", comments stripped
        text = README.read_text().split("## Configuration", 1)[1]
        block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
        parsed = json.loads(re.sub(r"//.*", "", block))
        assert list(parsed.items()) == list(harness.config_to_dict(trainer.TrainConfig()).items())


class TestRunExperiment:
    def test_metrics_line_keys_follow_the_readme_example(self, tmp_path):
        keys = [
            "schema_version", "step", "mean_reward", "accuracy", "quality_mean",
            "group_reward_std_mean", "kl_mean", "update_norm",
        ]
        assert list(json.loads(README_METRICS_EXAMPLE)) == keys
        cfg = harness.config_from_dict(dict(TINY_CONFIG, train_steps=0))
        harness.run_experiment(cfg, tmp_path / "run")
        line = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()[0]
        assert list(json.loads(line)) == keys

    def test_run_directory_contents(self, tmp_path):
        cfg = harness.config_from_dict(TINY_CONFIG)
        out = tmp_path / "run"
        harness.run_experiment(cfg, out)
        for name in (
            "config.json",
            "meta.json",
            "metrics.jsonl",
            "timing.jsonl",
            "checkpoint_pretrained.json",
            "checkpoint_final.json",
        ):
            assert (out / name).exists(), name
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == cfg.seed
        assert len(meta["config_sha256"]) == 64
        # effective config re-parses to the same configuration
        assert harness.parse_config(out / "config.json") == cfg

    def test_metrics_lines_match_eval_cadence(self, tmp_path):
        cfg = harness.config_from_dict(TINY_CONFIG)
        out = tmp_path / "run"
        result = harness.run_experiment(cfg, out)
        records = harness.load_metrics(out)
        assert [r.step for r in records] == [0, 2, 4]
        assert len(records) == len(result.metrics)
        timing = [json.loads(l) for l in (out / "timing.jsonl").read_text().splitlines()]
        assert [t["step"] for t in timing] == [0, 2, 4]

    def test_checkpoint_interval_files(self, tmp_path):
        cfg = harness.config_from_dict(dict(TINY_CONFIG, checkpoint_every=2))
        out = tmp_path / "run"
        harness.run_experiment(cfg, out)
        assert (out / "checkpoint_step2.json").exists()
        assert (out / "checkpoint_step4.json").exists()

    def test_failed_run_leaves_partial_metrics(self, tmp_path, monkeypatch):
        real_step = trainer.train_step

        def failing_step(state, step_index):
            if step_index >= 2:
                raise RuntimeError("boom")
            return real_step(state, step_index)

        monkeypatch.setattr(trainer, "train_step", failing_step)
        cfg = harness.config_from_dict(dict(TINY_CONFIG, eval_every=1))
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match="boom"):
            harness.run_experiment(cfg, out)
        records = harness.load_metrics(out)
        assert [r.step for r in records] == [0, 1]


class TestCli:
    def test_train_twice_byte_identical_metrics(self, tmp_path):
        config = write_config(tmp_path, TINY_CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = harness.cli(
                ["train", "--config", str(config), "--seed", "3", "--out-dir", str(out)]
            )
            assert code == 0
            outs.append((out / "metrics.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_invocation_nonzero_exit(self, capsys):
        assert harness.cli(["train", "--bogus-flag"]) != 0
        assert harness.cli(["not-a-command"]) != 0

    def test_missing_config_file_reports_error(self, tmp_path, capsys):
        # and the other OS errors: a checkpoint that is a directory, an
        # output directory that is a file
        config = write_config(tmp_path, TINY_CONFIG)
        taken = tmp_path / "taken"
        taken.write_text("")
        for argv in (
            ["train", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "out")],
            ["eval", "--config", str(config), "--checkpoint", str(tmp_path)],
            ["pretrain", "--config", str(config), "--out-dir", str(taken)],
        ):
            assert harness.cli(argv) == 1
            assert "error:" in capsys.readouterr().err

    def test_pretrain_then_eval(self, tmp_path, capsys):
        config = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "pre"
        assert harness.cli(["pretrain", "--config", str(config), "--out-dir", str(out)]) == 0
        ckpt = out / "checkpoint_pretrained.json"
        assert ckpt.exists()
        assert harness.cli(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(stats) == {"mean_reward", "accuracy", "quality_mean"}

    def test_eval_of_malformed_checkpoint_reports_error(self, tmp_path, capsys):
        config = write_config(tmp_path, TINY_CONFIG)
        ckpt = tmp_path / "bad.json"
        arch = harness.parse_config(config).architecture()
        good = json.loads(diffnet.checkpoint_text(arch, diffnet.init_params(arch, 0)))
        # strings and booleans of the right count would convert to floats
        for content in (
            [],
            {"format": "flowrl-params", "version": 1, "values": []},
            dict(good, values=[str(v) for v in good["values"]]),
            dict(good, values=[True] * len(good["values"])),
            # int() would read these widths as the header's own
            dict(good, architecture=dict(good["architecture"], input_dim=arch.input_dim + 0.9)),
            dict(good, architecture=dict(good["architecture"], input_dim=str(arch.input_dim))),
            dict(good, architecture=dict(good["architecture"], hidden_dims=[8.0])),
            dict(good, architecture=dict(good["architecture"], hidden_dims="8")),
            # an integer beyond float range
            dict(good, values=[10**400] + good["values"][1:]),
        ):
            ckpt.write_text(json.dumps(content))
            assert harness.cli(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 1
            assert "checkpoint" in capsys.readouterr().err

    def test_eval_rejects_a_negative_step(self, tmp_path, capsys):
        ckpt = tmp_path / "params.json"
        arch = trainer.TrainConfig().architecture()
        diffnet.save_checkpoint(ckpt, arch, diffnet.init_params(arch, 0))
        assert harness.cli(["eval", "--checkpoint", str(ckpt), "--step", "-1"]) == 1
        err = capsys.readouterr().err
        assert "--step" in err and "-1" in err, err

    def test_the_shared_parser_carries_no_flag_into_the_next_call(self, tmp_path, capsys):
        # the parser is built once per process and every call parses with it
        assert harness.build_parser() is harness.build_parser()
        config = write_config(tmp_path, TINY_CONFIG)
        ckpt = tmp_path / "params.json"
        arch = harness.parse_config(config).architecture()
        diffnet.save_checkpoint(ckpt, arch, diffnet.init_params(arch, 0))

        def evaluate(*flags):
            assert harness.cli(["eval", "--config", str(config), "--checkpoint", str(ckpt), *flags]) == 0
            return capsys.readouterr().out

        step0 = evaluate()
        assert evaluate("--step", "3") != step0
        assert evaluate() == step0
        for preset, out in (("flow-grpo", "preset"), (None, "plain")):
            flags = ["--preset", preset] if preset else []
            argv = ["train", "--config", str(config), "--out-dir", str(tmp_path / out), *flags]
            assert harness.cli(argv) == 0
        plain = harness.config_to_dict(harness.parse_config(config))
        assert json.loads((tmp_path / "plain" / "config.json").read_text()) == plain
        assert json.loads((tmp_path / "preset" / "config.json").read_text()) == dict(
            plain, **trainer.PRESETS["flow-grpo"]
        )

    def test_ablate_writes_four_runs_and_report(self, tmp_path):
        config = write_config(tmp_path, dict(TINY_CONFIG, train_steps=2, eval_every=1))
        out = tmp_path / "ablate"
        assert harness.cli(["ablate", "--config", str(config), "--out-dir", str(out)]) == 0
        for preset in harness.PRESET_NAMES:
            assert (out / preset / "metrics.jsonl").exists()
        report = json.loads((out / "phenomena_report.json").read_text())
        assert "steps_to_threshold" in report

    def test_ablate_pretrains_once_for_all_presets(self, tmp_path, monkeypatch):
        # sharing one θ is sound only while no preset touches the pretraining recipe
        recipe = {"task", "hidden_dims", "seed"} | {
            f.name for f in dataclasses.fields(trainer.TrainConfig) if f.name.startswith("pretrain_")
        }
        assert all(not recipe & set(overrides) for overrides in trainer.PRESETS.values())
        calls = []
        real_pretrain = trainer.pretrain

        def counting_pretrain(*args, **kwargs):
            calls.append(args)
            return real_pretrain(*args, **kwargs)

        monkeypatch.setattr(trainer, "pretrain", counting_pretrain)
        config = write_config(tmp_path, dict(TINY_CONFIG, train_steps=1, eval_every=1))
        out = tmp_path / "ablate"
        assert harness.cli(["ablate", "--config", str(config), "--out-dir", str(out)]) == 0
        assert len(calls) == 1
        checkpoints = {(out / p / "checkpoint_pretrained.json").read_bytes() for p in harness.PRESET_NAMES}
        assert len(checkpoints) == 1

    def test_ablate_encodes_the_pretrained_checkpoint_once(self, tmp_path, monkeypatch):
        encoded = []
        real_text = diffnet.checkpoint_text

        def recording_text(arch, params):
            encoded.append(real_text(arch, params))
            return encoded[-1]

        monkeypatch.setattr(diffnet, "checkpoint_text", recording_text)
        config = write_config(tmp_path, dict(TINY_CONFIG, train_steps=1, eval_every=1))
        out = tmp_path / "ablate"
        assert harness.cli(["ablate", "--config", str(config), "--out-dir", str(out)]) == 0
        # one pretrained checkpoint, then one final checkpoint per preset
        assert len(encoded) == 1 + len(harness.PRESET_NAMES)
        for preset in harness.PRESET_NAMES:
            assert (out / preset / "checkpoint_pretrained.json").read_text() == encoded[0]

    def test_ablate_evaluates_the_pretrained_policy_once(self, tmp_path, monkeypatch):
        steps = []
        real_evaluate = trainer.evaluate

        def recording_evaluate(arch, params, config, step):
            steps.append(step)
            return real_evaluate(arch, params, config, step)

        monkeypatch.setattr(trainer, "evaluate", recording_evaluate)
        config = write_config(tmp_path, dict(TINY_CONFIG, train_steps=2, eval_every=1))
        out = tmp_path / "ablate"
        assert harness.cli(["ablate", "--config", str(config), "--out-dir", str(out)]) == 0
        assert steps.count(0) == 1
        assert steps.count(2) == len(harness.PRESET_NAMES)
        first_lines = {
            (out / p / "metrics.jsonl").read_bytes().splitlines()[0] for p in harness.PRESET_NAMES
        }
        assert len(first_lines) == 1
        assert json.loads(first_lines.pop())["step"] == 0

    def test_no_preset_sets_a_field_that_evaluate_reads(self):
        # sharing one step-0 evaluation is sound only while no preset changes
        # what evaluate reads; record that by running it on a proxy config
        class ReadFields:
            def __init__(self, config):
                self.config, self.read = config, set()

            def __getattr__(self, name):
                attr = getattr(type(self.config), name, None)
                if callable(attr):  # a method: run it on the proxy, so its reads count
                    return attr.__get__(self)
                self.read.add(name)
                return getattr(self.config, name)

        config = trainer.TrainConfig(
            task=envsuite.TaskSpec(num_modes=2, context_count=2), hidden_dims=(4,), eval_samples=4
        )
        proxy = ReadFields(config)
        arch = config.architecture()
        trainer.evaluate(arch, diffnet.init_params(arch, 0), proxy, step=0)
        read = set(proxy.read)
        if "_schedule" in read:  # the config's one schedule, made from these two fields
            read |= {"noise_level", "sampling_steps"}
        assert {"task", "seed", "eval_samples", "accuracy_threshold", "sampling_steps"} <= read
        assert all(not read & set(overrides) for overrides in trainer.PRESETS.values())

    def test_dump_curves_row_per_eval(self, tmp_path):
        config = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "run"
        assert harness.cli(["train", "--config", str(config), "--out-dir", str(out)]) == 0
        assert harness.cli(["dump-curves", "--run-dir", str(out)]) == 0
        rows = (out / "curves.csv").read_text().strip().splitlines()
        assert rows[0] == "step,mean_reward,accuracy,quality_mean,group_reward_std_mean,kl_mean,update_norm"
        assert len(rows) - 1 == len(harness.load_metrics(out))

    def test_dump_curves_of_malformed_metrics_reports_error(self, tmp_path, capsys):
        good = MetricRecord.from_metrics_json(json.loads(README_METRICS_EXAMPLE)).metrics_json()
        bad_lines = (
            {k: v for k, v in good.items() if k != "mean_reward"},
            [1, 2],
            dict(good, kl_mean="high"),
            dict(good, step=None),
        )
        path = tmp_path / "metrics.jsonl"
        for bad in bad_lines:
            path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
            assert harness.cli(["dump-curves", "--run-dir", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path} line 2: metrics line"), err

    def test_dump_curves_names_the_file_line_of_broken_json(self, tmp_path, capsys):
        # a truncated line: the JSON decoder alone would report "line 1" of that line
        path = tmp_path / "metrics.jsonl"
        path.write_text(README_METRICS_EXAMPLE.replace("\n", " ") + "\n" + '{"schema_ver' + "\n")
        assert harness.cli(["dump-curves", "--run-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} line 2: Unterminated string"), err

    def test_trajectory_dump_pairs_instant_and_terminal_rewards(self, tmp_path):
        config = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "run"
        code = harness.cli(
            ["train", "--config", str(config), "--out-dir", str(out), "--dump-trajectories"]
        )
        assert code == 0
        rows = [
            json.loads(line)
            for line in (out / "trajectories.jsonl").read_text().splitlines()
        ]
        cfg = harness.parse_config(out / "config.json")
        assert len(rows) == cfg.batch_contexts * cfg.group_size
        for row in rows:
            assert len(row["instant_rewards"]) == cfg.sampling_steps
            assert row["instant_rewards"][-1] == row["terminal_reward"]


def _record(step, reward, std, quality=0.0):
    return MetricRecord(
        step=step, mean_reward=reward, accuracy=0.0, quality_mean=quality,
        group_reward_std_mean=std, kl_mean=0.0, update_norm=0.0, wallclock_ms=0.0,
    )


class TestReproducePhenomena:
    def test_monotone_decreasing_std_asserted_true(self):
        vgpo = [_record(s, 0.1 + 0.002 * s, 0.5 - 0.001 * s) for s in range(0, 400, 25)]
        grpo = [_record(s, 0.1 + 0.001 * s, 0.5 - 0.0005 * s) for s in range(0, 400, 25)]
        report = harness.reproduce_phenomena({"vgpo": vgpo, "flow-grpo": grpo})
        assert report["std_trend"]["vgpo"]["evaluated"]
        assert report["std_trend"]["vgpo"]["decreasing"]

    def test_non_converging_run_guarded(self):
        flat = [_record(s, 0.1, 0.3) for s in range(0, 400, 25)]
        rising = [_record(s, 0.1 + 0.002 * s, 0.3) for s in range(0, 400, 25)]
        report = harness.reproduce_phenomena({"vgpo": rising, "flow-grpo": flat})
        trend = report["std_trend"]["flow-grpo"]
        assert not trend["converged"]
        assert not trend["evaluated"]
        assert "no convergence" in trend["note"]

    def test_speedup_factor_from_recorded_steps(self):
        # dense-reward run crosses 80% of its final reward at step 300, the
        # sparse run at step 500 -> speedup 5/3
        def series(cross_step):
            records = []
            for s in range(0, 525, 25):
                reward = 1.0 if s >= cross_step else 0.1
                records.append(_record(s, reward, 0.1))
            return records

        report = harness.reproduce_phenomena(
            {"vgpo": series(300), "flow-grpo": series(500)}
        )
        out = report["steps_to_threshold"]
        assert out["vgpo"] == 300
        assert out["flow-grpo"] == 500
        assert abs(out["speedup_factor"] - 500 / 300) < 1e-12

    def test_quality_drop_table(self):
        vgpo = [_record(0, 0.1, 0.1, quality=-2.0)] + [
            _record(s, 0.1 + 0.002 * s, 0.1, quality=-2.1) for s in range(25, 525, 25)
        ]
        grpo = [_record(0, 0.1, 0.1, quality=-2.0)] + [
            _record(s, 0.1 + 0.002 * s, 0.1, quality=-3.0) for s in range(25, 525, 25)
        ]
        report = harness.reproduce_phenomena({"vgpo": vgpo, "flow-grpo": grpo})
        rows = report["reward_hacking"]["runs"]
        assert rows["vgpo"]["quality_drop"] < rows["flow-grpo"]["quality_drop"]
        assert report["reward_hacking"]["vgpo_drop_leq_baseline"]

    def test_missing_run_rejected(self):
        with pytest.raises(ValueError, match="missing run"):
            harness.reproduce_phenomena({"vgpo": [_record(0, 0.1, 0.1)]})
