"""Experiment front-end: strict config parsing, CLI, run-directory layout,
ablation presets, curve export, and the phenomena report.

Run directory layout::

    config.json         effective configuration (re-parseable)
    meta.json           seed, config content hash, package version
    metrics.jsonl       deterministic evaluation records (byte-reproducible)
    timing.jsonl        wallclock sidecar, one line per metrics line
    checkpoint_pretrained.json / checkpoint_final.json
    checkpoint_step<N>.json   on the configured cadence
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, diffnet, rollout, trainer
from .envsuite import TASK_NAMES, TaskSpec, half_plane_task, mode_preference_task, ring_task
from .records import SCHEMA_VERSION, MetricRecord
from .trainer import TrainConfig

PRESET_NAMES = ("vgpo", "flow-grpo", "tcrm-only", "adae-only")


class ConfigError(ValueError):
    """A configuration file failed strict parsing."""


# key -> (type, default); None defaults are resolved against the task/estimator
_TASK_KEYS = {
    "task": (str, "mode-preference"),
    "task_state_dim": (int, 2),
    "task_num_modes": (int, 8),
    "task_radius": (float, 3.0),
    "task_mode_var": (float, 0.15),
    "task_context_count": (int, 8),
    "task_sharpness": (float, 1.0),
    "task_ring_radius": (float, 2.0),
}

_TRAIN_KEYS = {
    "hidden_dims": (list, [64, 64]),
    "group_size": (int, 8),
    "sampling_steps": (int, 10),
    "train_steps": (int, 1000),
    "batch_contexts": (int, 4),
    "gamma": (float, 0.9),
    "k": (float, 0.5),
    "noise_level": (float, 0.7),
    "eps_clip": (float, 0.2),
    "beta_kl": (float, 0.01),
    "lr": (float, 1e-3),
    "estimator": (str, "vgpo"),
    "tcrm_enabled": (bool, None),
    "seed": (int, 0),
    "inner_epochs": (int, 1),
    "pretrain_steps": (int, 3000),
    "pretrain_lr": (float, 1e-3),
    "pretrain_batch": (int, 128),
    "eval_every": (int, 25),
    "eval_samples": (int, 256),
    "accuracy_threshold": (float, 0.5),
    "shared_initial_noise": (bool, False),
    "checkpoint_every": (int, 0),
    "eps_std": (float, 1e-8),
    "eps_mean": (float, 1e-6),
}

CONFIG_KEYS = {**_TASK_KEYS, **_TRAIN_KEYS}


def _coerce(key: str, kind: type, value):
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"key {key!r}: expected a boolean, got {value!r}")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key {key!r}: expected an integer, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key {key!r}: expected a number, got {value!r}")
        return float(value)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"key {key!r}: expected a string, got {value!r}")
        return value
    if kind is list:
        if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"key {key!r}: expected a list of integers, got {value!r}")
        return list(value)
    raise AssertionError(f"unhandled config type {kind}")


def _build_task(values: dict) -> TaskSpec:
    name = values["task"]
    if name not in TASK_NAMES:
        raise ConfigError(f"key 'task': unknown task {name!r} (have {list(TASK_NAMES)})")
    try:
        if name == "mode-preference":
            task = mode_preference_task(
                num_modes=values["task_num_modes"],
                radius=values["task_radius"],
                mode_var=values["task_mode_var"],
                context_count=values["task_context_count"],
                sharpness=values["task_sharpness"],
                state_dim=values["task_state_dim"],
            )
        elif name == "half-plane":
            task = half_plane_task(
                state_dim=values["task_state_dim"],
                separation=values["task_radius"],
                mode_var=values["task_mode_var"],
                context_count=values["task_context_count"],
                sharpness=values["task_sharpness"],
            )
        else:
            task = ring_task(
                ring_radius=values["task_ring_radius"],
                num_modes=values["task_num_modes"],
                mode_var=values["task_mode_var"],
                context_count=values["task_context_count"],
                sharpness=values["task_sharpness"],
            )
    except ValueError as exc:
        raise ConfigError(f"invalid task specification: {exc}") from exc
    # keep the keys this task ignores as well, so its config writes back as given
    used = {_task_key(param) for param, _ in task.params}
    ignored = tuple((key[len("task_"):], values[key]) for key in _TASK_KEYS if key not in used | {"task"})
    return replace(task, params=tuple(sorted(task.params + ignored)))


def _task_key(param: str) -> str:
    """Config key of a task builder parameter."""
    return "task_radius" if param == "separation" else f"task_{param}"


def config_from_dict(raw: dict) -> TrainConfig:
    """Build a TrainConfig from a flat key/value mapping, strictly."""
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, (kind, default) in CONFIG_KEYS.items():
        values[key] = _coerce(key, kind, raw[key]) if key in raw else default
    if values["tcrm_enabled"] is None:
        values["tcrm_enabled"] = values["estimator"] == "vgpo"
    task = _build_task(values)
    try:
        return TrainConfig(
            task=task,
            hidden_dims=tuple(values["hidden_dims"]),
            **{key: values[key] for key in _TRAIN_KEYS if key != "hidden_dims"},
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path) -> TrainConfig:
    """Parse a flat JSON config file; an empty file means all defaults."""
    text = Path(path).read_text()
    if not text.strip():
        raw = {}
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(raw)


def config_to_dict(config: TrainConfig) -> dict:
    """Flat effective configuration; round-trips through config_from_dict."""
    task = config.task
    out = {key: default for key, (_, default) in _TASK_KEYS.items()} | {"task": task.name}
    out.update((_task_key(param), value) for param, value in task.params)
    out["hidden_dims"] = list(config.hidden_dims)
    for key in _TRAIN_KEYS:
        if key != "hidden_dims":
            out[key] = getattr(config, key)
    return out


def preset_config(base: TrainConfig, name: str) -> TrainConfig:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r} (have {list(PRESET_NAMES)})")
    return trainer.apply_preset(base, name)


def _config_hash(config: TrainConfig) -> str:
    payload = json.dumps(config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def run_experiment(config: TrainConfig, out_dir) -> trainer.RunResult:
    """Execute a full run into a self-describing directory.

    Metrics lines flush as they are produced, so a failed run leaves a
    partial-but-valid metrics stream behind.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config_to_dict(config), indent=2) + "\n")
    (out / "meta.json").write_text(
        json.dumps(
            {
                "seed": config.seed,
                "config_sha256": _config_hash(config),
                "package_version": __version__,
                "schema_version": SCHEMA_VERSION,
            },
            indent=2,
        )
        + "\n"
    )
    arch = config.architecture()
    with (out / "metrics.jsonl").open("w") as metrics_fh, (out / "timing.jsonl").open("w") as timing_fh:

        def on_metric(record: MetricRecord) -> None:
            metrics_fh.write(json.dumps(record.metrics_json()) + "\n")
            metrics_fh.flush()
            timing_fh.write(json.dumps(record.timing_json()) + "\n")
            timing_fh.flush()

        def on_checkpoint(step: int, params) -> None:
            diffnet.save_checkpoint(out / f"checkpoint_step{step}.json", arch, params)

        result = trainer.run(config, on_metric=on_metric, on_checkpoint=on_checkpoint)
    diffnet.save_checkpoint(out / "checkpoint_pretrained.json", arch, result.params_ref)
    diffnet.save_checkpoint(out / "checkpoint_final.json", arch, result.params)
    return result


def load_metrics(run_dir) -> list[MetricRecord]:
    path = Path(run_dir) / "metrics.jsonl"
    records = []
    for line in path.read_text().splitlines():
        if line.strip():
            records.append(MetricRecord.from_metrics_json(json.loads(line)))
    return records


CURVE_COLUMNS = (
    "step",
    "mean_reward",
    "accuracy",
    "quality_mean",
    "group_reward_std_mean",
    "kl_mean",
    "update_norm",
)


def dump_curves(run_dir, out_path=None) -> Path:
    """Export the evaluation series as CSV, one row per evaluation step."""
    records = load_metrics(run_dir)
    out = Path(out_path) if out_path is not None else Path(run_dir) / "curves.csv"
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for rec in records:
            writer.writerow([getattr(rec, col) for col in CURVE_COLUMNS])
    return out


def dump_rollout_profile(config: TrainConfig, params, path, step_index: int = 0) -> Path:
    """Write one rollout batch as trajectory JSONL under the given policy.

    Each line carries the per-step instant-reward sequence next to the flat
    terminal reward, the data behind sparse-vs-dense reward comparisons.
    """
    state = trainer.TrainState(
        config=config,
        arch=config.architecture(),
        triplet=trainer.PolicyTriplet.from_pretrained(np.asarray(params, dtype=np.float64)),
        adam=diffnet.adam_init(np.asarray(params).size),
    )
    rollout.dump_trajectories(trainer.rollout_batch(state, step_index), path)
    return Path(path)


def _steps_to_threshold(records: list[MetricRecord], fraction: float) -> tuple[int, float]:
    final = records[-1].mean_reward
    threshold = fraction * final
    for rec in records:
        if rec.mean_reward >= threshold:
            return rec.step, threshold
    return records[-1].step, threshold


def _std_trend(records: list[MetricRecord], convergence_min: float) -> dict:
    improvement = records[-1].mean_reward - records[0].mean_reward
    out = {"reward_improvement": improvement, "converged": improvement >= convergence_min}
    if not out["converged"]:
        out["evaluated"] = False
        out["note"] = "no convergence, std trend not evaluated"
        return out
    series = [r.group_reward_std_mean for r in records if r.step > 0]
    if len(series) < 4:
        out["evaluated"] = False
        out["note"] = "too few evaluation points"
        return out
    q = max(1, len(series) // 4)
    first = float(sum(series[:q]) / q)
    final = float(sum(series[-q:]) / q)
    out.update(
        evaluated=True,
        first_quartile_mean=first,
        final_quartile_mean=final,
        decreasing=final < first,
    )
    return out


def reproduce_phenomena(
    runs: dict[str, list[MetricRecord]],
    convergence_min: float = 0.1,
    threshold_fraction: float = 0.8,
) -> dict:
    """Cross-run report: reward-std trend, steps to threshold (dense vs sparse
    reward), and the quality-vs-reward trade-off at matched task reward.

    ``runs`` must contain matched-seed 'vgpo' and 'flow-grpo' metric series.
    """
    for required in ("vgpo", "flow-grpo"):
        if required not in runs or not runs[required]:
            raise ValueError(f"missing run {required!r}")
    report: dict = {"schema_version": SCHEMA_VERSION}

    report["std_trend"] = {
        name: _std_trend(records, convergence_min) for name, records in runs.items()
    }

    tcrm_steps, _ = _steps_to_threshold(runs["vgpo"], threshold_fraction)
    sparse_steps, _ = _steps_to_threshold(runs["flow-grpo"], threshold_fraction)
    if tcrm_steps > 0:
        speedup = sparse_steps / tcrm_steps
    else:
        speedup = None if sparse_steps > 0 else 1.0
    report["steps_to_threshold"] = {
        "threshold_fraction": threshold_fraction,
        "vgpo": tcrm_steps,
        "flow-grpo": sparse_steps,
        "speedup_factor": speedup,
    }

    matched = min(runs["vgpo"][-1].mean_reward, runs["flow-grpo"][-1].mean_reward)
    rows = {}
    for name in ("vgpo", "flow-grpo"):
        records = runs[name]
        at_match = next(r for r in records if r.mean_reward >= matched)
        rows[name] = {
            "step_at_match": at_match.step,
            "reward_at_match": at_match.mean_reward,
            "quality_at_match": at_match.quality_mean,
            "quality_pretrained": records[0].quality_mean,
            "quality_drop": records[0].quality_mean - at_match.quality_mean,
        }
    report["reward_hacking"] = {
        "matched_reward": matched,
        "runs": rows,
        "vgpo_drop_leq_baseline": rows["vgpo"]["quality_drop"] <= rows["flow-grpo"]["quality_drop"],
    }
    return report


def _load_config(args) -> TrainConfig:
    config = parse_config(args.config) if args.config else config_from_dict({})
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _cmd_pretrain(args) -> int:
    config = _load_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arch = config.architecture()
    params = trainer.pretrain(
        arch,
        config.task,
        config.pretrain_steps,
        config.seed,
        lr=config.pretrain_lr,
        batch_size=config.pretrain_batch,
    )
    (out / "config.json").write_text(json.dumps(config_to_dict(config), indent=2) + "\n")
    diffnet.save_checkpoint(out / "checkpoint_pretrained.json", arch, params)
    stats = trainer.evaluate(arch, params, config, step=0)
    print(json.dumps({"pretrained": stats}))
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    if args.preset:
        config = preset_config(config, args.preset)
    result = run_experiment(config, args.out_dir)
    if args.dump_trajectories:
        dump_rollout_profile(
            config,
            result.params,
            Path(args.out_dir) / "trajectories.jsonl",
            step_index=config.train_steps + 1,
        )
    print(json.dumps({"steps": config.train_steps, "final": result.metrics[-1].metrics_json()}))
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    arch, params = diffnet.load_checkpoint(args.checkpoint)
    expected = config.architecture()
    if arch != expected:
        raise ConfigError("checkpoint architecture does not match the configured task")
    stats = trainer.evaluate(arch, params, config, step=args.step)
    print(json.dumps(stats))
    return 0


def _cmd_ablate(args) -> int:
    base = _load_config(args)
    out = Path(args.out_dir)
    runs = {}
    for name in PRESET_NAMES:
        config = preset_config(base, name)
        result = run_experiment(config, out / name)
        runs[name] = result.metrics
        print(json.dumps({"preset": name, "final": result.metrics[-1].metrics_json()}))
    report = reproduce_phenomena({"vgpo": runs["vgpo"], "flow-grpo": runs["flow-grpo"]})
    (out / "phenomena_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"phenomena_report": str(out / "phenomena_report.json")}))
    return 0


def _cmd_dump_curves(args) -> int:
    out = dump_curves(args.run_dir, args.out)
    print(json.dumps({"curves": str(out)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowrl",
        description="Desk-scale RL lab for flow-matching generative policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_dir=True):
        p.add_argument("--config", help="flat JSON config file (empty file = defaults)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if out_dir:
            p.add_argument("--out-dir", default="runs/run", help="run directory")

    p = sub.add_parser("pretrain", help="flow-matching pretraining only")
    common(p)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("train", help="full training run")
    common(p)
    p.add_argument("--preset", choices=PRESET_NAMES, help="apply an ablation preset")
    p.add_argument(
        "--dump-trajectories",
        action="store_true",
        help="write one rollout batch (instant rewards vs terminal) after training",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a parameter checkpoint")
    common(p, out_dir=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--step", type=int, default=0, help="evaluation seed stream index")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run the four presets and the phenomena report")
    common(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("dump-curves", help="export evaluation series as CSV")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", default=None, help="CSV path (default: <run-dir>/curves.csv)")
    p.set_defaults(func=_cmd_dump_curves)
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())
