"""flowrl benchmark: closed-loop workloads with one client and one operation in flight.

Run from the repository root::

    python3 perfbench/run.py --workload rl-train --seed 1 --seconds 36 --trace 0

The untraced run (``--trace 0``) times only the top-level calls and prints the
end-to-end metrics of BENCHMARK.json. The traced run (``--trace 1``)
alternates untraced and traced rounds, wraps every layer listed in
``tracer.LAYERS``, and prints the per-layer metrics. Both check the program's
outputs and print, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("rl-train", "ablate-sweep", "sample-eval")
# top-level calls the untraced run times
TIMED_CALLS = ("trainer.pretrain", "trainer.train_step", "trainer.evaluate")
SETUP_REPEATS = 15
MIN_ROUNDS = 2
# below this many samples a p90 has too few points beyond it to report
MIN_P90_SAMPLES = 100


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a declared metric."""


def _import_program():
    """Import flowrl from this checkout's sources, never from elsewhere."""
    if not (SRC / "flowrl" / "__init__.py").is_file():
        raise BenchmarkError(f"no flowrl sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import flowrl

    if Path(flowrl.__file__).resolve().parent != SRC / "flowrl":
        raise BenchmarkError(f"imported flowrl from {flowrl.__file__}, not from {SRC}")
    import tracer
    import workloads

    classes = {w.name: w for w in (workloads.RlTrain, workloads.AblateSweep, workloads.SampleEval)}
    modules = {name: importlib.import_module(f"flowrl.{name}") for name in tracer.LAYERS}
    return classes, modules, tracer


def environment() -> dict:
    """Interpreter, BLAS, threads, CPU and the measured source."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "flowrl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def setup_time(name: str, seed: int, workdir: Path) -> float:
    """Set-up time of a fresh process: from spawn to the point the first timed call would start.

    CLOCK_MONOTONIC is shared by all processes, so the child's reading
    subtracts directly from the parent's.
    """
    child_dir = Path(tempfile.mkdtemp(dir=workdir, prefix="setup"))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only", str(child_dir)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up process failed: {proc.stderr.strip()}")
    elapsed = float(proc.stdout.split()[-1]) - t0
    shutil.rmtree(child_dir)
    return elapsed


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def run_rounds(workload, modules, tracer_mod, seconds: float, trace: bool, probe=None, probes=0):
    """The closed loop: rounds of fixed work until ``seconds`` have passed.

    A round starts only if the last one (or, traced, the last untraced and
    traced pair) would still end before the deadline. An untraced run makes
    at least enough rounds for MIN_P90_SAMPLES calls, and every run at least
    MIN_ROUNDS. Traced runs alternate untraced and traced rounds. Each
    round's inputs are generated before its clock starts.

    ``probe()`` measures one set-up; the ``probes`` calls are spread between
    the rounds so that they sample the host's speed over the whole run.
    """
    timer = tracer_mod.CallTimer()
    tracer = tracer_mod.Tracer() if trace else None
    rounds = {"plain": [], "traced": []}  # (index, seconds)
    attempted = failed = 0
    problems: list[str] = []
    min_rounds = MIN_ROUNDS if trace else max(
        MIN_ROUNDS, math.ceil(MIN_P90_SAMPLES / workload.calls_per_round))
    start = time.perf_counter()
    deadline = start + seconds
    done = index = 0
    while True:
        traced = trace and index % 2 == 1
        if traced:
            hooks = tracer.installed(modules, op_id=index)
        else:
            hooks = tracer_mod.patched(modules, timer.make_wrapper, TIMED_CALLS)
        attempted += workload.ops_per_round
        try:
            if index:
                workload.prepare(index)
            t0 = time.perf_counter()
            with hooks:
                workload.run_round(index)
        except Exception:  # the loop reports the failure and stops
            failed += workload.ops_per_round
            problems.append(f"round {index} raised:\n{traceback.format_exc()}")
            break
        elapsed = time.perf_counter() - t0
        rounds["traced" if traced else "plain"].append((index, elapsed))
        found = workload.check_round(index)
        failed += len(found)
        problems += found
        index += 1
        while done < probes and time.perf_counter() >= start + done * seconds / probes:
            probe()
            done += 1
        unit = 2 if trace else 1
        if index >= min_rounds and index % unit == 0:
            recent = sum(r[-1][1] for r in rounds.values() if r)
            if time.perf_counter() + recent > deadline:
                break
    for _ in range(done, probes):
        probe()
    return timer, tracer, rounds, attempted, failed, problems


def end_to_end_metrics(workload, timer, rounds, setup) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count) for every metric that applies."""
    out: dict[str, tuple[float, str, int]] = {}
    plain = [s for _, s in rounds["plain"]]
    if setup:
        out["setup_s"] = (statistics.median(setup), "s", len(setup))
    if plain:
        out["run_s"] = (statistics.fmean(plain), "s", len(plain))
    if workload.call == "request":
        calls = [s for i, _ in rounds["plain"] for s in workload.latencies[i]]
    else:
        calls = timer.durations.get(workload.call, [])
    if calls:
        out["call_ms.p50"] = (_percentile(calls, 50) * 1e3, "ms", len(calls))
        if len(calls) >= MIN_P90_SAMPLES:
            out["call_ms.p90"] = (_percentile(calls, 90) * 1e3, "ms", len(calls))
    evals = timer.durations.get("trainer.evaluate", [])
    if evals:
        out["eval_samples_per_s"] = (workload.eval_samples_per_call * len(evals) / sum(evals), "1/s", len(evals))
        out["eval_ms.p50"] = (_percentile(evals, 50) * 1e3, "ms", len(evals))
        if len(evals) >= MIN_P90_SAMPLES:
            out["eval_ms.p90"] = (_percentile(evals, 90) * 1e3, "ms", len(evals))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    # training throughput and latency, on the workloads that train
    pretrain = timer.durations.get("trainer.pretrain", [])
    if pretrain:
        out["pretrain_steps_per_s"] = (
            workload.pretrain_steps_per_call * len(pretrain) / sum(pretrain), "1/s", len(pretrain))
    steps = timer.durations.get("trainer.train_step", [])
    if steps:
        out["train_steps_per_s"] = (len(steps) / sum(steps), "1/s", len(steps))
        out["train_step_ms.p50"] = (_percentile(steps, 50) * 1e3, "ms", len(steps))
        if len(steps) >= MIN_P90_SAMPLES:
            out["train_step_ms.p90"] = (_percentile(steps, 90) * 1e3, "ms", len(steps))
    if workload.finals:
        n = len(workload.finals)
        out["final_mean_reward"] = (sum(f["mean_reward"] for f in workload.finals) / n, "reward", n)
        out["final_quality_mean"] = (sum(f["quality_mean"] for f in workload.finals) / n, "logpdf", n)
    return out


def per_layer(tracer_mod, tracer, rounds) -> dict[str, tuple[float, str, int]]:
    """Per-layer calls and times, counts and ratios from the traced rounds.

    Counts come from the first traced round (every round does the same
    work); times are medians over the traced rounds.
    """
    units = tracer_mod.per_layer_metrics()
    ops = [i for i, _ in rounds["traced"]]
    tables = [tracer.layer_table(op) for op in ops]
    n = len(ops)
    out = {}
    for fn, row in tables[0].items():
        out[f"{fn}.calls"] = (row["calls"], "count", n)
        for field in ("total_ms", "self_ms"):
            out[f"{fn}.{field}"] = (statistics.median(t[fn][field] for t in tables), "ms", n)
    for name, value in tracer.ratios(ops[0]).items():
        out[name] = (value, units[name][0], 1)
    plain = statistics.median(s for _, s in rounds["plain"])
    traced = statistics.median(s for _, s in rounds["traced"])
    out["tracing.untraced_run_s"] = (plain, "s", len(rounds["plain"]))
    out["tracing.traced_run_s"] = (traced, "s", n)
    out["tracing_overhead_frac"] = ((traced - plain) / plain, "frac", n)
    return out


def declared(spec: dict, section: str, computed: dict) -> dict:
    """The metrics BENCHMARK.json declares for this run, with their units."""
    out = {}
    for entry in spec[section]:
        name, unit = entry["name"], entry["unit"]
        if name not in computed:
            raise BenchmarkError(f"declared metric {name} was not measured")
        value, got_unit, _ = computed[name]
        if got_unit != unit:
            raise BenchmarkError(f"metric {name}: measured in {got_unit}, declared in {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            toy: bool = False, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the full result (metrics, checks, traces)."""
    classes, modules, tracer_mod = _import_program()
    workload = classes[name](seed, workdir, toy)
    setup: list[float] = []
    timer, tracer, rounds, attempted, failed, problems = run_rounds(
        workload, modules, tracer_mod, seconds, trace,
        probe=lambda: setup.append(setup_time(name, seed, workdir)),
        probes=0 if trace else setup_repeats,
    )
    metrics = end_to_end_metrics(workload, timer, rounds, setup)
    if trace and rounds["traced"] and rounds["plain"]:
        metrics.update(per_layer(tracer_mod, tracer, rounds))
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "absent": tracer.absent if tracer else [],
        "tracer": tracer,
    }


def print_report(result: dict, env: dict) -> None:
    metrics = result["metrics"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g} frac  (n={result['attempted']})")
    layer_rows = [k for k in metrics if k.endswith((".calls", ".total_ms", ".self_ms"))]
    for key, (value, unit, n) in metrics.items():
        if key not in layer_rows:
            print(f"  {key:<44} {value:>14.6g} {unit}  (n={n})")
    if layer_rows:
        print(f"  {'layer':<36} {'calls':>9} {'total_ms':>12} {'self_ms':>12}")
        fns = sorted({k.rsplit('.', 1)[0] for k in layer_rows}, key=lambda f: -metrics[f + ".self_ms"][0])
        for fn in fns:
            print(f"  {fn:<36} {metrics[fn + '.calls'][0]:>9} "
                  f"{metrics[fn + '.total_ms'][0]:>12.3f} {metrics[fn + '.self_ms'][0]:>12.3f}")
        print(f"  absent: {', '.join(result['absent']) or 'none'}")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)


def save_outputs(result: dict, env: dict) -> None:
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {k: v for k, v in result.items() if k != "tracer"}
    record["metrics"] = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in result["metrics"].items()}
    record["env"] = env
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result["tracer"] is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        result["tracer"].save(OUT / "spans" / f"{stem}.npz")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            classes, _, _ = _import_program()
            classes[args.workload](args.seed, Path(args.setup_only))
            print(repr(time.monotonic()))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        _import_program()
        workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        env = environment()
        print_report(result, env)
        save_outputs(result, env)
        metrics = declared(spec, "per_layer" if args.trace else "end_to_end", result["metrics"])
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
