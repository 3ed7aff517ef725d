"""Byte check: run the same flowrl commands on a git revision and on this
checkout, and compare every output byte for byte.

Run from anywhere inside the repository::

    python3 tools/bytecheck.py HEAD~

``REV`` is exported with ``git archive`` into a temporary directory. The
two trees then run at once, one worker thread each, and each runs its
commands in order, with its own ``src`` on ``PYTHONPATH``,
``PYTHONDONTWRITEBYTECODE=1`` and ``OPENBLAS_NUM_THREADS=1``:

- ``flowrl ablate --seed 1``;
- ``flowrl train --preset flow-grpo --seed 2 --dump-trajectories`` with
  ``inner_epochs: 2``, which also writes one rollout batch under the final
  policy (states, instant rewards and ``logp_old``) to ``trajectories.jsonl``;
- ``flowrl dump-curves`` on that run, which writes its ``curves.csv``;
- ``flowrl eval`` on that run's final checkpoint;
- ``flowrl eval`` at the benchmark's shape, 1024 samples per context, on the
  ablate ``vgpo`` run's final checkpoint;
- ``flowrl pretrain --seed 4`` on a recipe other than the default: the 1-D
  half-plane task with one context, 301 steps of batch 5;
- ``flowrl pretrain --seed 5`` and ``flowrl eval`` on the ring task with
  three contexts, a task whose reward ignores the context, so that scoring
  the samples of every context in one call is compared too;
- ``flowrl pretrain --seed 8`` and ``flowrl eval`` on the 1-D half-plane
  task with one context and ``hidden_dims: []``, so that the evaluation
  sampler's folded first layer is compared where it is also the output
  layer;
- ``flowrl train --seed 3 --dump-trajectories`` on the 8-dimensional
  half-plane task with two contexts, ``group_size: 3``, ``batch_contexts:
  2``, ``sampling_steps: 7`` and ``inner_epochs: 3``, so that the policy
  update's per-step constants, broadcast over trajectories of a shape
  other than the default's, and its sums over an 8-wide last axis are
  compared too;
- ``flowrl train --seed 6 --dump-trajectories`` with ``hidden_dims: [24,
  40, 16]``, ``shared_initial_noise: true``, ``inner_epochs: 2`` and 200
  training steps, so that the run's training-step buffers, whose layer
  widths differ here, and the shared-start rollout are compared too;
- ``flowrl train --seed 7 --dump-trajectories`` at the smallest shapes:
  ``batch_contexts: 1``, ``group_size: 2``, ``sampling_steps: 2`` and
  ``inner_epochs: 2``, so that the update's (B, G, T) broadcasts and
  reductions meet axes of length 1 and 2;
- ``flowrl train --seed 9 --dump-trajectories`` on the ring task with three
  contexts, and ``flowrl train --seed 10 --dump-trajectories`` on the 1-D
  mode-preference task with three modes and three contexts, 40 training
  steps each, so that the reward's ring branch and its 1-D column fold score
  the projections of ``trainer.instant_rewards`` too.

Every ``flowrl`` child is single-threaded in BLAS because two children with
threaded BLAS on two cores run slower together than one after the other:
an idle BLAS worker spins on the core the other tree needs. Both sides get
the same setting, and no output byte depends on the BLAS thread count.

Every file the commands write and each command's stdout are compared, except
``timing.jsonl``, which holds wallclock times. Exits 0 when every output is
identical and 1 naming each file that differs or exists on one side only; a
failed export or command stops it with an error. Under each differing file
that parses as JSON, JSON lines or CSV on both sides it prints the largest
absolute difference of every numeric field that moved, or the first
structural mismatch when the two sides differ in shape, so that a deliberate
numerics change can be measured.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
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
    "eval1024.json": {"eval_samples": 1024},
    "ring.json": {"task": "ring", "task_context_count": 3, "pretrain_steps": 200, "eval_samples": 64},
    "linear1d.json": {
        "task": "half-plane", "task_state_dim": 1, "task_context_count": 1, "hidden_dims": [],
        "pretrain_steps": 200, "eval_samples": 256,
    },
    "half-plane8.json": {
        "task": "half-plane", "task_state_dim": 8, "task_context_count": 2,
        "group_size": 3, "batch_contexts": 2, "sampling_steps": 7, "inner_epochs": 3,
    },
    "uneven.json": {
        "hidden_dims": [24, 40, 16], "shared_initial_noise": True, "inner_epochs": 2, "train_steps": 200,
    },
    "minimal.json": {
        "batch_contexts": 1, "group_size": 2, "sampling_steps": 2, "inner_epochs": 2, "train_steps": 60,
        "pretrain_steps": 200, "eval_every": 20, "eval_samples": 32,
    },
    "ring-train.json": {
        "task": "ring", "task_context_count": 3, "train_steps": 40, "pretrain_steps": 200,
        "eval_every": 20, "eval_samples": 32,
    },
    "mode1d.json": {
        "task": "mode-preference", "task_state_dim": 1, "task_num_modes": 3, "task_context_count": 3,
        "train_steps": 40, "pretrain_steps": 200, "eval_every": 20, "eval_samples": 32,
    },
}
COMMANDS = {
    "ablate": ["ablate", "--seed", "1", "--out-dir", "out/ablate"],
    "train": [
        "train", "--preset", "flow-grpo", "--seed", "2", "--config", "config.json",
        "--out-dir", "out/train", "--dump-trajectories",
    ],
    "dump-curves": ["dump-curves", "--run-dir", "out/train"],
    "eval": [
        "eval", "--seed", "2", "--config", "config.json",
        "--checkpoint", "out/train/checkpoint_final.json",
    ],
    "eval-1024": [
        "eval", "--seed", "1", "--config", "eval1024.json", "--step", "5",
        "--checkpoint", "out/ablate/vgpo/checkpoint_final.json",
    ],
    "pretrain": ["pretrain", "--seed", "4", "--config", "pretrain.json", "--out-dir", "out/pretrain"],
    "pretrain-ring": ["pretrain", "--seed", "5", "--config", "ring.json", "--out-dir", "out/ring"],
    "eval-ring": [
        "eval", "--seed", "5", "--config", "ring.json", "--step", "2",
        "--checkpoint", "out/ring/checkpoint_pretrained.json",
    ],
    "pretrain-linear": ["pretrain", "--seed", "8", "--config", "linear1d.json", "--out-dir", "out/linear"],
    "eval-linear": [
        "eval", "--seed", "8", "--config", "linear1d.json", "--step", "3",
        "--checkpoint", "out/linear/checkpoint_pretrained.json",
    ],
    "train-half-plane8": [
        "train", "--seed", "3", "--config", "half-plane8.json", "--out-dir", "out/half-plane8",
        "--dump-trajectories",
    ],
    "train-uneven": [
        "train", "--seed", "6", "--config", "uneven.json", "--out-dir", "out/uneven", "--dump-trajectories",
    ],
    "train-minimal": [
        "train", "--seed", "7", "--config", "minimal.json", "--out-dir", "out/minimal", "--dump-trajectories",
    ],
    "train-ring": [
        "train", "--seed", "9", "--config", "ring-train.json", "--out-dir", "out/ring-train", "--dump-trajectories",
    ],
    "train-mode1d": [
        "train", "--seed", "10", "--config", "mode1d.json", "--out-dir", "out/mode1d", "--dump-trajectories",
    ],
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
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
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


def parse(path: Path):
    """The content of a JSON, JSON lines or CSV file as nested lists and
    dicts (a CSV file as one dict per row, keyed by its header), or None
    when it is none of these."""
    text = path.read_text()
    try:
        return json.loads(text)
    except ValueError:
        pass
    try:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except ValueError:
        pass
    if path.suffix == ".csv":
        return list(csv.DictReader(io.StringIO(text)))
    return None


def _number(value):
    """``value`` as a float if it is a JSON number or a numeric CSV cell, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _leaves(value, path=""):
    """(path, leaf) pairs of nested lists and dicts, in order; list indices
    appear in the path as ``[i]``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def field_maxima(a, b) -> dict[str, float]:
    """Largest absolute difference per numeric field between two ``parse``
    results, for the fields that differ. A field is a leaf path with its
    list indices dropped, so it spans the lines of a JSON lines file, the
    rows of a CSV file and the entries of a list. Raises ValueError naming
    the first place where the two differ in shape, or in a value that is not
    a number."""
    leaves_a, leaves_b = list(_leaves(a)), list(_leaves(b))
    if len(leaves_a) != len(leaves_b):
        raise ValueError(f"{len(leaves_a)} values against {len(leaves_b)}")
    maxima: dict[str, float] = {}
    for (path_a, va), (path_b, vb) in zip(leaves_a, leaves_b):
        if path_a != path_b:
            raise ValueError(f"{path_a} against {path_b}")
        na, nb = _number(va), _number(vb)
        if na is None or nb is None:
            if va != vb:
                raise ValueError(f"{path_a}: {va!r} against {vb!r}")
            continue
        if na != nb:
            field = re.sub(r"\[\d+\]", "", path_a).lstrip(".") or "(value)"
            maxima[field] = max(maxima.get(field, 0.0), abs(na - nb))
    return maxima


def describe(a: Path, b: Path) -> list[str]:
    """Report lines for a file present on both sides: ``field_maxima``,
    one line per field, or the structural mismatch; none when either side
    does not parse."""
    parsed_a, parsed_b = parse(a), parse(b)
    if parsed_a is None or parsed_b is None:
        return []
    try:
        maxima = field_maxima(parsed_a, parsed_b)
    except ValueError as exc:
        return [f"structural mismatch: {exc}"]
    if not maxima:
        return ["no numeric field differs"]
    return [f"{field}: max |diff| {value:.3g}" for field, value in maxima.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this checkout against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tmp = Path(tmp)
        export(args.rev, tmp / "rev-tree")
        with ThreadPoolExecutor(2) as pool:
            # list() reads both results, so a failed command on either side raises here
            list(pool.map(run_commands, (tmp / "rev-tree", ROOT), (tmp / "rev", tmp / "checkout")))
        rev_out, checkout_out = tmp / "rev" / "out", tmp / "checkout" / "out"
        diffs = differing(rev_out, checkout_out)
        compared = len(compared_files(rev_out))
        for name in diffs:
            print(f"differs: {name}")
            if (rev_out / name).is_file() and (checkout_out / name).is_file():
                for line in describe(rev_out / name, checkout_out / name):
                    print(f"    {line}")
    if diffs:
        print(f"{len(diffs)} of {compared} files differ against {args.rev} (timing.jsonl not compared)")
        return 1
    print(f"identical: {compared} files against {args.rev} (timing.jsonl not compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
