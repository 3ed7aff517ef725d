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
import functools
import hashlib
import json
import sys
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, diffnet, rollout, trainer
from .envsuite import TaskSpec
from .records import METRIC_FIELDS, SCHEMA_VERSION, MetricRecord
from .trainer import TrainConfig

PRESET_NAMES = tuple(trainer.PRESETS)


class ConfigError(ValueError):
    """A configuration file failed strict parsing."""


def _kind(hint) -> type:
    """Config value type of a field annotation: list for a tuple, else the type."""
    return list if typing.get_origin(hint) is tuple else hint


# config key -> (TaskSpec field, type): "task" for the name, "task_<field>" for the rest
_TASK_KEYS = {
    ("task" if name == "name" else f"task_{name}"): (name, _kind(hint))
    for name, hint in typing.get_type_hints(TaskSpec).items()
    if name != "mode_centers"
}
# every TrainConfig field but the task, in field order: key -> type
_TRAIN_KEYS = {name: _kind(hint) for name, hint in typing.get_type_hints(TrainConfig).items() if name != "task"}


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
        # json also reads NaN, Infinity and integers beyond the float range
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            raise ConfigError(f"key {key!r}: expected a finite number, got {value!r}")
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


def config_from_dict(raw: dict) -> TrainConfig:
    """Build a TrainConfig from a flat key/value mapping, strictly."""
    unknown = sorted(set(raw) - set(_TASK_KEYS) - set(_TRAIN_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    task_values = {name: _coerce(key, kind, raw[key]) for key, (name, kind) in _TASK_KEYS.items() if key in raw}
    try:
        task = TaskSpec(**task_values)
    except ValueError as exc:
        raise ConfigError(f"invalid task specification: {exc}") from exc
    train_values = {key: _coerce(key, kind, raw[key]) for key, kind in _TRAIN_KEYS.items() if key in raw}
    try:
        return TrainConfig(task=task, **train_values)
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
    if task.mode_centers is not None:
        raise ValueError("a task with explicit mode_centers has no config form")
    out = {key: getattr(task, name) for key, (name, _) in _TASK_KEYS.items()}
    for key, kind in _TRAIN_KEYS.items():
        value = getattr(config, key)
        out[key] = list(value) if kind is list else value
    return out


def _config_hash(config: TrainConfig) -> str:
    payload = json.dumps(config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class Pretrained:
    """A pretrained θ with what every run starting from it reuses: its step-0
    evaluation and the text of its checkpoint file."""

    params: np.ndarray
    evaluation: dict
    checkpoint: str

    @classmethod
    def from_config(cls, config: TrainConfig) -> Pretrained:
        """Pretrain by ``config``'s recipe, then evaluate θ at step 0 and
        encode its checkpoint, once each."""
        arch, params = config.architecture(), trainer.pretrain(config)
        return cls(params, trainer.evaluate(arch, params, config, step=0), diffnet.checkpoint_text(arch, params))


def run_experiment(config: TrainConfig, out_dir, pretrained: Pretrained | None = None) -> trainer.RunResult:
    """Execute a full run into a self-describing directory.

    RL starts from ``pretrained``, whose step-0 evaluation becomes the first
    metrics line; without it the run pretrains by the config's recipe
    first. Metrics lines flush as they are produced, so a failed run leaves
    a partial-but-valid metrics stream behind.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config_to_dict(config), indent=2) + "\n")
    meta = {"seed": config.seed, "config_sha256": _config_hash(config),
            "package_version": __version__, "schema_version": SCHEMA_VERSION}
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    arch = config.architecture()
    if pretrained is None:
        pretrained = Pretrained.from_config(config)
    (out / "checkpoint_pretrained.json").write_text(pretrained.checkpoint)
    with (out / "metrics.jsonl").open("w") as metrics_fh, (out / "timing.jsonl").open("w") as timing_fh:

        def on_metric(record: MetricRecord) -> None:
            metrics_fh.write(json.dumps(record.metrics_json()) + "\n")
            metrics_fh.flush()
            timing_fh.write(json.dumps(record.timing_json()) + "\n")
            timing_fh.flush()

        def on_checkpoint(step: int, params) -> None:
            diffnet.save_checkpoint(out / f"checkpoint_step{step}.json", arch, params)

        result = trainer.run(
            config,
            pretrained.params,
            on_metric=on_metric,
            on_checkpoint=on_checkpoint,
            pretrained_eval=pretrained.evaluation,
        )
    diffnet.save_checkpoint(out / "checkpoint_final.json", arch, result.params)
    return result


def load_metrics(run_dir) -> list[MetricRecord]:
    path = Path(run_dir) / "metrics.jsonl"
    records = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if line.strip():
            try:
                records.append(MetricRecord.from_metrics_json(json.loads(line)))
            except ValueError as exc:  # json.JSONDecodeError is a ValueError
                raise ValueError(f"{path} line {number}: {exc}") from exc
    return records


def dump_curves(run_dir, out_path=None) -> Path:
    """Export the evaluation series as CSV, one row per evaluation step."""
    records = load_metrics(run_dir)
    out = Path(out_path) if out_path is not None else Path(run_dir) / "curves.csv"
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_FIELDS)
        for rec in records:
            writer.writerow([getattr(rec, col) for col in METRIC_FIELDS])
    return out


# a run has converged when its evaluation reward rose by at least this much
CONVERGENCE_MIN = 0.1
# steps to threshold: the first evaluation reaching this fraction of the final reward
THRESHOLD_FRACTION = 0.8


def _steps_to_threshold(records: list[MetricRecord]) -> int:
    threshold = THRESHOLD_FRACTION * records[-1].mean_reward
    for rec in records:
        if rec.mean_reward >= threshold:
            return rec.step
    return records[-1].step


def _std_trend(records: list[MetricRecord]) -> dict:
    improvement = records[-1].mean_reward - records[0].mean_reward
    out = {"reward_improvement": improvement, "converged": improvement >= CONVERGENCE_MIN}
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


def reproduce_phenomena(runs: dict[str, list[MetricRecord]]) -> dict:
    """Cross-run report: reward-std trend, steps to threshold (dense vs sparse
    reward), and the quality-vs-reward trade-off at matched task reward.

    ``runs`` must contain matched-seed 'vgpo' and 'flow-grpo' metric series.
    """
    for required in ("vgpo", "flow-grpo"):
        if required not in runs or not runs[required]:
            raise ValueError(f"missing run {required!r}")
    report: dict = {"schema_version": SCHEMA_VERSION}

    report["std_trend"] = {name: _std_trend(records) for name, records in runs.items()}

    tcrm_steps = _steps_to_threshold(runs["vgpo"])
    sparse_steps = _steps_to_threshold(runs["flow-grpo"])
    if tcrm_steps > 0:
        speedup = sparse_steps / tcrm_steps
    else:
        speedup = None if sparse_steps > 0 else 1.0
    report["steps_to_threshold"] = {
        "threshold_fraction": THRESHOLD_FRACTION,
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
    pretrained = Pretrained.from_config(config)
    (out / "config.json").write_text(json.dumps(config_to_dict(config), indent=2) + "\n")
    (out / "checkpoint_pretrained.json").write_text(pretrained.checkpoint)
    print(json.dumps({"pretrained": pretrained.evaluation}))
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    if args.preset:
        config = trainer.apply_preset(config, args.preset)
    result = run_experiment(config, args.out_dir)
    if args.dump_trajectories:
        # one batch under the final policy, at the step index after the last
        batch = trainer.rollout_batch(trainer.init_state(config, result.params), config.train_steps + 1)
        rewards = trainer.instant_rewards(config.task, batch, batch.hs[-1])
        logps = trainer.step_logps(batch, trainer.step_means(batch, batch.hs[-1]))
        rollout.dump_trajectories(batch, rewards, logps, Path(args.out_dir) / "trajectories.jsonl")
    print(json.dumps({"steps": config.train_steps, "final": result.metrics[-1].metrics_json()}))
    return 0


def _cmd_eval(args) -> int:
    if args.step < 0:
        raise ConfigError(f"--step must be >= 0, got {args.step}")
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
    # the presets change only tcrm_enabled and k, which neither pretraining nor
    # evaluation reads, so all four share one pretraining, its step-0
    # evaluation and its checkpoint text
    pretrained = Pretrained.from_config(base)
    runs = {}
    for name in PRESET_NAMES:
        config = trainer.apply_preset(base, name)
        result = run_experiment(config, out / name, pretrained)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process: parsing reads it
    and never changes it, so every ``cli`` call shares it."""
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
    except (OSError, ValueError, RuntimeError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())
