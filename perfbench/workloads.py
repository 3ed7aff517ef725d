"""The benchmark's three closed-loop workloads, one client each.

A workload generates the inputs of each round untimed (``prepare``), then
runs the round's fixed amount of work (``run_round``, the timed part).
``check_round`` verifies the round's outputs afterwards, untimed, and
returns one message per failed operation. Every round gets inputs of its
own, derived from the workload seed and the round index, so no round can be
served by what an earlier round left in memory or on disk. Determinism is
checked by running one round or request again, untimed, and comparing the
bytes. The program receives only generated configs and checkpoints.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from flowrl import diffnet, harness

METRIC_KEYS = (
    "mean_reward",
    "accuracy",
    "quality_mean",
    "group_reward_std_mean",
    "kl_mean",
    "update_norm",
)
PHENOMENA_KEYS = ("schema_version", "std_trend", "steps_to_threshold", "reward_hacking")


def round_seed(seed: int, index: int) -> int:
    """The config seed of round ``index``: distinct per round, fixed by the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def check_response(stats: dict, where: str) -> list[str]:
    """Rewards and accuracies lie in [0, 1]; qualities are finite."""
    problems = []
    for key in ("mean_reward", "accuracy"):
        value = stats.get(key)
        if not isinstance(value, float) or not 0.0 <= value <= 1.0:
            problems.append(f"{where}: {key}={value!r} outside [0, 1]")
    value = stats.get("quality_mean")
    if not isinstance(value, float) or not math.isfinite(value):
        problems.append(f"{where}: quality_mean={value!r} not finite")
    return problems


def check_metrics_stream(data: bytes, where: str) -> tuple[list[str], list[dict]]:
    """Checks every record of a metrics.jsonl; returns (problems, records)."""
    records = [json.loads(line) for line in data.decode().splitlines() if line.strip()]
    if not records:
        return [f"{where}: empty metrics stream"], records
    problems = []
    for number, record in enumerate(records, 1):
        problems += check_response(record, f"{where} line {number}")
        for key in METRIC_KEYS:
            if not isinstance(record.get(key), float) or not math.isfinite(record[key]):
                problems.append(f"{where} line {number}: {key}={record.get(key)!r} not finite")
    return problems, records


class Workload:
    """Set-up shared by the workloads: generated configs and the work per round."""

    overrides: dict = {}
    toy_overrides: dict = {}
    ops_per_round = 1

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.toy = toy
        self.settings = {**self.overrides, **(self.toy_overrides if toy else {})}
        self.configs: dict[int, tuple[Path, harness.TrainConfig]] = {}
        self.prepare(0)
        config = self.configs[0][1]
        self.pretrain_steps_per_call = config.pretrain_steps
        self.eval_samples_per_call = config.eval_samples * config.task.context_count
        self.finals: list[dict] = []  # last metrics record of every checked run

    def prepare(self, index: int) -> None:
        """Write round ``index``'s config file, seeded for that round."""
        path = self.workdir / f"config{index}.json"
        values = {**self.settings, "seed": round_seed(self.seed, index)}
        path.write_text(json.dumps(values, sort_keys=True) + "\n")
        self.configs[index] = (path, harness.parse_config(path))


class RlTrain(Workload):
    """One default vgpo run through ``harness.run_experiment`` per round.

    150 training steps after the default 3000 pretraining steps, so the
    overhead-bound 8-row inner loop takes about two thirds of the round.
    Round 0 is run a second time, untimed, to check that its
    metrics.jsonl is byte-identical.
    """

    name = "rl-train"
    call = "trainer.train_step"
    overrides = {"train_steps": 150}
    toy_overrides = {"train_steps": 3, "pretrain_steps": 5, "eval_every": 2, "eval_samples": 8}

    @property
    def calls_per_round(self) -> int:
        return self.configs[0][1].train_steps

    def run_round(self, index: int) -> None:
        harness.run_experiment(self.configs[index][1], self.workdir / f"run{index}")

    def check_round(self, index: int) -> list[str]:
        out = self.workdir / f"run{index}"
        data = (out / "metrics.jsonl").read_bytes()
        problems, records = check_metrics_stream(data, f"run {index}")
        if records:
            self.finals.append(records[-1])
            # a toy run trains too few steps to learn
            if not self.toy and not records[-1]["mean_reward"] > records[0]["mean_reward"]:
                problems.append(
                    f"run {index}: final mean_reward {records[-1]['mean_reward']} is not above"
                    f" the pretrained {records[0]['mean_reward']}"
                )
        if index == 0:
            repeat = self.workdir / "run0-repeat"
            harness.run_experiment(self.configs[index][1], repeat)
            if (repeat / "metrics.jsonl").read_bytes() != data:
                problems.append("run 0: metrics.jsonl differs when the run is repeated")
            shutil.rmtree(repeat)
        shutil.rmtree(out)
        return problems[:1]


class AblateSweep(Workload):
    """``flowrl ablate`` over the four presets with one seed per round.

    The four pretrainings of a round have identical inputs and take about
    half the round; two presets discard the per-step projections the rollout
    makes. Evaluating every 10 steps gives the phenomena report enough
    points for its reward-std trend.
    """

    name = "ablate-sweep"
    call = "trainer.train_step"
    overrides = {"pretrain_steps": 1000, "train_steps": 30, "eval_every": 10}
    toy_overrides = {"train_steps": 2, "pretrain_steps": 5, "eval_every": 1, "eval_samples": 8}

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        super().__init__(seed, workdir, toy)
        self.exit_codes: dict[int, int] = {}

    @property
    def calls_per_round(self) -> int:
        return len(harness.PRESET_NAMES) * self.configs[0][1].train_steps

    def run_round(self, index: int) -> None:
        out = self.workdir / f"sweep{index}"
        argv = ["ablate", "--config", str(self.configs[index][0]), "--out-dir", str(out)]
        with redirect_stdout(io.StringIO()):
            self.exit_codes[index] = harness.cli(argv)

    def check_round(self, index: int) -> list[str]:
        out = self.workdir / f"sweep{index}"
        problems = []
        if self.exit_codes.pop(index) != 0:
            problems.append(f"sweep {index}: flowrl ablate exited non-zero")
        for preset in harness.PRESET_NAMES:
            run_dir = out / preset
            missing = [
                f for f in ("config.json", "meta.json", "metrics.jsonl", "checkpoint_final.json")
                if not (run_dir / f).is_file()
            ]
            if missing:
                problems.append(f"sweep {index}: {preset} lacks {', '.join(missing)}")
                continue
            found, records = check_metrics_stream(
                (run_dir / "metrics.jsonl").read_bytes(), f"sweep {index} {preset}"
            )
            problems += found
            if records:
                self.finals.append(records[-1])
        try:
            report = json.loads((out / "phenomena_report.json").read_text())
            if not isinstance(report, dict) or any(k not in report for k in PHENOMENA_KEYS):
                problems.append(f"sweep {index}: phenomena_report.json lacks its sections")
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"sweep {index}: phenomena_report.json unreadable: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        return problems[:1]


class SampleEval(Workload):
    """``flowrl eval`` requests: load a JSON checkpoint, evaluate it at one step index.

    Request k of round i asks for step index 8*i + k, so no two timed
    requests repeat. After each round, its first request is sent again,
    untimed, and its response must be byte-identical. Evaluation cost does
    not depend on parameter values, so the checkpoint is an initialisation.
    """

    name = "sample-eval"
    call = "request"
    overrides = {"eval_samples": 1024}
    toy_overrides = {"eval_samples": 16}
    ops_per_round = 8  # requests
    calls_per_round = ops_per_round

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        super().__init__(seed, workdir, toy)
        self.checkpoint = workdir / "checkpoint.json"
        config = self.configs[0][1]
        arch = config.architecture()
        diffnet.save_checkpoint(self.checkpoint, arch, diffnet.init_params(arch, config.seed))
        self.latencies: dict[int, list[float]] = {}  # round -> request seconds
        self.responses: dict[int, list[tuple[int, str]]] = {}  # round -> (exit code, stdout)

    def prepare(self, index: int) -> None:
        if index == 0:  # one config and one checkpoint serve every round
            super().prepare(index)

    def request(self, step: int) -> tuple[int, str]:
        argv = ["eval", "--config", str(self.configs[0][0]),
                "--checkpoint", str(self.checkpoint), "--step", str(step)]
        with redirect_stdout(io.StringIO()) as stdout:
            code = harness.cli(argv)
        return code, stdout.getvalue()

    def run_round(self, index: int) -> None:
        responses = self.responses[index] = []
        latencies = self.latencies[index] = []
        for k in range(self.ops_per_round):
            t0 = time.perf_counter()
            responses.append(self.request(self.ops_per_round * index + k))
            latencies.append(time.perf_counter() - t0)

    def check_round(self, index: int) -> list[str]:
        problems = []
        responses = self.responses.pop(index)
        for k, (code, text) in enumerate(responses):
            step = self.ops_per_round * index + k
            where = f"round {index} step {step}"
            try:
                found = [f"{where}: flowrl eval exited {code}"] if code else check_response(
                    json.loads(text), where)
            except json.JSONDecodeError as exc:
                found = [f"{where}: response is not JSON: {exc}"]
            if k == 0 and self.request(step) != (code, text):
                found.append(f"{where}: response differs when the request is repeated")
            problems += found[:1]
        return problems
