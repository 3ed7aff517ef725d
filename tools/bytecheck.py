"""Byte check: run the same flowrl commands on a git revision and on this
checkout, and compare every output byte for byte.

Run from anywhere inside the repository::

    python3 tools/bytecheck.py HEAD~

``REV`` is exported with ``git archive`` into a temporary directory. Each
tree then runs, with its own ``src`` on ``PYTHONPATH`` and
``PYTHONDONTWRITEBYTECODE=1``:

- ``flowrl ablate --seed 1``;
- ``flowrl train --preset flow-grpo --seed 2`` with ``inner_epochs: 2``;
- ``flowrl eval`` on that run's final checkpoint;
- ``flowrl pretrain --seed 4`` on a recipe other than the default: the 1-D
  half-plane task with one context, 301 steps of batch 5.

Every file the commands write and each command's stdout are compared, except
``timing.jsonl``, which holds wallclock times. Exits 0 when every output is
identical and 1 naming each file that differs or exists on one side only; a
failed export or command stops it with an error.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {"timing.jsonl"}
# config file name -> content
CONFIGS = {
    "config.json": {"inner_epochs": 2},
    "pretrain.json": {
        "task": "half-plane", "task_state_dim": 1, "task_context_count": 1,
        "pretrain_steps": 301, "pretrain_batch": 5,
    },
}
COMMANDS = {
    "ablate": ["ablate", "--seed", "1", "--out-dir", "out/ablate"],
    "train": [
        "train", "--preset", "flow-grpo", "--seed", "2", "--config", "config.json",
        "--out-dir", "out/train",
    ],
    "eval": [
        "eval", "--seed", "2", "--config", "config.json",
        "--checkpoint", "out/train/checkpoint_final.json",
    ],
    "pretrain": ["pretrain", "--seed", "4", "--config", "pretrain.json", "--out-dir", "out/pretrain"],
}


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest`` with ``git archive``."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"git archive {rev} failed: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest)


def run_commands(tree: Path, workdir: Path) -> None:
    """Run ``COMMANDS`` in order with ``tree``'s package, writing every output
    under ``workdir/out``: the commands' files and one ``<name>.stdout`` each."""
    (workdir / "out").mkdir(parents=True)
    for name, values in CONFIGS.items():
        (workdir / name).write_text(json.dumps(values) + "\n")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for name, args in COMMANDS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "flowrl", *args], cwd=workdir, env=env, capture_output=True
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{tree}: flowrl {name} exited {proc.returncode}: {proc.stderr.decode()}")
        (workdir / "out" / f"{name}.stdout").write_bytes(proc.stdout)


def compared_files(root: Path) -> set[str]:
    """Relative paths of the files under ``root``, less those named in ``SKIPPED``."""
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file() and p.name not in SKIPPED}


def differing(a: Path, b: Path) -> list[str]:
    """``compared_files`` of ``a`` and ``b`` whose bytes differ or that exist
    on one side only, sorted."""
    in_a, in_b = compared_files(a), compared_files(b)
    both = in_a & in_b
    return sorted((in_a ^ in_b) | {f for f in both if not filecmp.cmp(a / f, b / f, shallow=False)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this checkout against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tmp = Path(tmp)
        export(args.rev, tmp / "rev-tree")
        run_commands(tmp / "rev-tree", tmp / "rev")
        run_commands(ROOT, tmp / "checkout")
        diffs = differing(tmp / "rev" / "out", tmp / "checkout" / "out")
        compared = len(compared_files(tmp / "rev" / "out"))
    if diffs:
        for name in diffs:
            print(f"differs: {name}")
        return 1
    print(f"identical: {compared} files against {args.rev} (timing.jsonl not compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
