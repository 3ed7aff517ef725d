"""Self-test of the benchmark at toy sizes.

Run from the repository root, either way::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import ast
import json
import shutil
import sys
import types

import run
import tracer

TOY_SECONDS = 0.0  # MIN_ROUNDS rounds only
TRAINING_LAYERS = (
    "rollout.rollout_group",
    "advantage.cumulative_values",
    "advantage.value_weights",
    "advantage.adae",
    "advantage.grpo_terminal_advantage",
    "trainer.pretrain",
    "trainer.rollout_batch",
    "trainer.compute_advantages",
    "trainer.surrogate_loss_and_grad",
    "trainer.update_policy",
    "trainer.train_step",
)


def _spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _toy(name: str, trace: bool) -> dict:
    workdir = run.OUT / "selftest" / f"{name}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run.measure(name, 7, TOY_SECONDS, trace, workdir, toy=True, setup_repeats=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_declared_metrics_are_emitted_with_units():
    spec = _spec()
    for name in run.WORKLOAD_NAMES:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = _toy(name, trace)
            assert result["failed"] == 0, result["problems"]
            emitted = run.declared(spec, section, result["metrics"])
            assert list(emitted) == [m["name"] for m in spec[section]]
            if section == "end_to_end":
                assert all(v["value"] > 0 for v in emitted.values()), (name, emitted)


def test_sample_eval_does_no_training_work():
    metrics = _toy("sample-eval", True)["metrics"]
    for fn in TRAINING_LAYERS:
        assert metrics[f"{fn}.calls"][0] == 0, fn
    assert metrics["trainer.evaluate.calls"][0] > 0
    assert metrics["diffnet.load_checkpoint.calls"][0] > 0


def test_rounds_get_inputs_of_their_own():
    classes, _, _ = run._import_program()
    workdir = run.OUT / "selftest" / "inputs"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = classes["rl-train"](7, workdir, toy=True)
        for index in (1, 2):
            workload.prepare(index)
        seeds = [workload.configs[i][1].seed for i in range(3)]
        assert len(set(seeds)) == 3, seeds
        again = classes["rl-train"](7, workdir, toy=True)
        assert again.configs[0][1].seed == seeds[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_per_layer_section_matches_the_tracer():
    declared = {m["name"]: (m["unit"], m["better"]) for m in _spec()["per_layer"]}
    assert declared == tracer.per_layer_metrics()


def test_missing_function_is_reported_absent():
    _, modules, _ = run._import_program()
    advantage = types.SimpleNamespace(**{
        k: v for k, v in vars(modules["advantage"]).items() if k != "grpo_terminal_advantage"
    })
    recorder = tracer.Tracer()
    with recorder.installed({**modules, "advantage": advantage}, op_id=0):
        modules["diffnet"].features(modules["diffnet"].for_task(2, 1), [0.0, 0.0], 0.5, 0)
    assert recorder.absent == ["advantage.grpo_terminal_advantage"]
    table = recorder.layer_table(0)
    assert table["advantage.grpo_terminal_advantage"]["calls"] == 0
    assert table["diffnet.features"]["calls"] == 1
    assert not hasattr(modules["diffnet"].features, "__wrapped__")


def test_traced_functions_are_reached_through_module_attributes():
    """A name bound by ``from .module import fn`` would bypass the wrappers."""
    for path in sorted((run.SRC / "flowrl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in tracer.LAYERS:
                bound = {alias.name for alias in node.names} & set(tracer.LAYERS[node.module])
                assert not bound, f"{path.name} imports {sorted(bound)} from {node.module}"


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    failures = 0
    for label, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}")
    sys.exit(1 if failures else 0)
