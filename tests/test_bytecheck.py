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
