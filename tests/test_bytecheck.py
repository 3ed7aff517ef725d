"""The compare step of tools/bytecheck.py on two hand-made output trees."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bytecheck", Path(__file__).resolve().parent.parent / "tools" / "bytecheck.py"
)
bytecheck = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bytecheck)


def write_tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_one_differing_byte_is_named(tmp_path):
    same = {"run/metrics.jsonl": b'{"step": 0}\n', "eval.stdout": b"{}\n"}
    a = write_tree(tmp_path / "a", {**same, "run/checkpoint_final.json": b"[0.125]"})
    b = write_tree(tmp_path / "b", {**same, "run/checkpoint_final.json": b"[0.126]"})
    assert bytecheck.differing(a, b) == ["run/checkpoint_final.json"]


def test_identical_trees_and_timing_sidecar(tmp_path):
    files = {"run/metrics.jsonl": b'{"step": 0}\n'}
    a = write_tree(tmp_path / "a", {**files, "run/timing.jsonl": b'{"ms": 1.5}\n'})
    b = write_tree(tmp_path / "b", {**files, "run/timing.jsonl": b'{"ms": 1.7}\n'})
    assert bytecheck.differing(a, b) == []


def test_file_on_one_side_only(tmp_path):
    a = write_tree(tmp_path / "a", {"x.json": b"1", "extra.json": b"2"})
    b = write_tree(tmp_path / "b", {"x.json": b"1"})
    assert bytecheck.differing(a, b) == ["extra.json"]


def test_jsonl_fields_report_their_largest_difference(tmp_path):
    a = write_tree(tmp_path / "a", {
        "metrics.jsonl": b'{"step": 0, "r": 0.5, "q": -1.0}\n{"step": 5, "r": 0.75, "q": -2.0}\n',
    })
    b = write_tree(tmp_path / "b", {
        "metrics.jsonl": b'{"step": 0, "r": 0.5005, "q": -1.0}\n{"step": 5, "r": 0.749, "q": -2.0}\n',
    })
    parsed = [bytecheck.parse(root / "metrics.jsonl") for root in (a, b)]
    maxima = bytecheck.field_maxima(*parsed)
    assert set(maxima) == {"r"}
    assert abs(maxima["r"] - 1e-3) < 1e-12
    assert bytecheck.describe(a / "metrics.jsonl", b / "metrics.jsonl") == ["r: max |diff| 0.001"]


def test_csv_columns_and_nested_json_lists(tmp_path):
    a = write_tree(tmp_path / "a", {
        "curves.csv": b"step,mean_reward\r\n0,0.25\r\n10,0.5\r\n",
        "ckpt.json": b'{"architecture": {"input_dim": 5}, "values": [0.5, -1.0, 2.0]}\n',
    })
    b = write_tree(tmp_path / "b", {
        "curves.csv": b"step,mean_reward\r\n0,0.25\r\n10,0.5625\r\n",
        "ckpt.json": b'{"architecture": {"input_dim": 5}, "values": [0.5, -1.25, 2.125]}\n',
    })
    assert bytecheck.describe(a / "curves.csv", b / "curves.csv") == ["mean_reward: max |diff| 0.0625"]
    assert bytecheck.describe(a / "ckpt.json", b / "ckpt.json") == ["values: max |diff| 0.25"]


def test_structural_mismatch_and_unparsed_files(tmp_path):
    a = write_tree(tmp_path / "a", {
        "m.jsonl": b'{"step": 0}\n{"step": 5}\n',
        "k.json": b'{"step": 0, "note": "x"}',
        "out.stdout": b"done in 1 s\n",
    })
    b = write_tree(tmp_path / "b", {
        "m.jsonl": b'{"step": 0}\n',
        "k.json": b'{"step": 0, "note": "y"}',
        "out.stdout": b"done in 2 s\n",
    })
    assert bytecheck.describe(a / "m.jsonl", b / "m.jsonl") == ["structural mismatch: 2 values against 1"]
    assert bytecheck.describe(a / "k.json", b / "k.json") == ["structural mismatch: note: 'x' against 'y'"]
    assert bytecheck.describe(a / "out.stdout", b / "out.stdout") == []


def test_eval_commands_cover_the_benchmark_shape_and_one_pass_scoring():
    # an eval at sample-eval's 1024 samples per context, and one on a task
    # with several contexts whose reward ignores them, so that scoring every
    # context's samples in one call is compared byte for byte
    named = [
        (args[0], args[args.index("--config") + 1]) for args in bytecheck.COMMANDS.values() if "--config" in args
    ]
    assert {name for _, name in named} <= set(bytecheck.CONFIGS)
    evals = [bytecheck.CONFIGS[name] for command, name in named if command == "eval"]
    assert any(c.get("eval_samples") == 1024 for c in evals)
    assert any(c.get("task") in ("half-plane", "ring") and c.get("task_context_count", 8) > 1 for c in evals)


def test_an_eval_covers_a_net_without_hidden_layers_on_a_1d_task():
    # the evaluation sampler folds the time and context features into the
    # first layer, which is the output layer when there are no hidden ones
    evals = [
        bytecheck.CONFIGS[args[args.index("--config") + 1]]
        for args in bytecheck.COMMANDS.values()
        if args[0] == "eval"
    ]
    assert any(
        c.get("hidden_dims") == [] and c.get("task_state_dim") == 1 and c.get("task_context_count") == 1
        for c in evals
    )


def test_a_train_run_covers_a_wide_state_and_several_update_epochs():
    # the update's per-step constants broadcast over (trajectory, step)
    # arrays, and its sums run over the state's last axis: one run at d = 8,
    # a non-default group, batch and step count, and more than two epochs
    trains = [
        bytecheck.CONFIGS[args[args.index("--config") + 1]]
        for args in bytecheck.COMMANDS.values()
        if args[0] == "train" and "--dump-trajectories" in args
    ]
    assert any(
        c.get("task_state_dim", 2) >= 8 and c.get("inner_epochs", 1) >= 3
        and c.get("group_size", 8) != 8 and c.get("sampling_steps", 10) != 10
        for c in trains
    )


def test_a_train_run_covers_uneven_layer_widths_and_a_shared_start():
    # the run's training-step buffers, one per layer width, and backward's
    # deltas in them: a net whose hidden widths all differ, two update
    # epochs (the later one runs its pass into arrays the first one spent) and
    # rollouts whose trajectories share their initial state
    trains = [
        bytecheck.CONFIGS[args[args.index("--config") + 1]]
        for args in bytecheck.COMMANDS.values()
        if args[0] == "train" and "--dump-trajectories" in args
    ]
    assert any(
        len(set(c.get("hidden_dims", ()))) >= 3
        and c.get("shared_initial_noise") and c.get("inner_epochs", 1) >= 2
        for c in trains
    )


def test_a_train_run_covers_the_smallest_shapes():
    # one slot of two members over two steps, with two update epochs: the
    # update's broadcasts and reductions on axes of length 1 and 2
    trains = [
        bytecheck.CONFIGS[args[args.index("--config") + 1]]
        for args in bytecheck.COMMANDS.values()
        if args[0] == "train" and "--dump-trajectories" in args
    ]
    assert any(
        (c.get("batch_contexts", 4), c.get("group_size", 8), c.get("sampling_steps", 10)) == (1, 2, 2)
        and c.get("inner_epochs", 1) >= 2
        for c in trains
    )


def test_train_runs_cover_the_ring_reward_and_the_1d_mode_reward():
    # trainer.instant_rewards scores its projections with every branch of the reward:
    # the ring's, which ignores the context, and mode-preference's column
    # fold at d = 1 over several contexts
    trains = [
        bytecheck.CONFIGS[args[args.index("--config") + 1]]
        for args in bytecheck.COMMANDS.values()
        if args[0] == "train" and "--dump-trajectories" in args
    ]
    assert any(c.get("task") == "ring" and c.get("task_context_count", 8) > 1 for c in trains)
    assert any(
        c.get("task", "mode-preference") == "mode-preference" and c.get("task_state_dim") == 1
        and c.get("task_context_count", 8) > 1
        for c in trains
    )
