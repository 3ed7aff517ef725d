"""Layer tracing installed from outside the program.

The tracer replaces the listed functions of the flowrl modules by wrappers on
the module objects. Every call that resolves a function through its module
(``diffnet.forward`` from another module, or ``features`` from inside
``diffnet``, which looks it up in the same module dictionary) then records a
span: name, start, end, parent span and operation id. Spans stay in compact
in-memory arrays until the run ends.

A listed function that the program no longer has is reported as absent and
contributes zero calls; its absence is not an error.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array

import numpy as np

# The traced layers: every public function a training step, an evaluation or
# an experiment run crosses. ``records`` holds data classes only.
LAYERS = {
    "diffnet": ("features", "forward", "grad", "adam_update", "save_checkpoint", "load_checkpoint"),
    "flowcore": (
        "step_distribution",
        "sde_step",
        "ode_project",
        "transition_logpdf",
        "kl_step",
        "fm_loss_and_grad",
        "sample_terminal_ode",
    ),
    "envsuite": ("reward", "quality", "sample_data"),
    "rollout": ("rollout_group",),
    "advantage": ("cumulative_values", "value_weights", "adae", "grpo_terminal_advantage"),
    "trainer": (
        "pretrain",
        "rollout_batch",
        "compute_advantages",
        "surrogate_loss_and_grad",
        "update_policy",
        "train_step",
        "evaluate",
    ),
    "harness": ("run_experiment", "reproduce_phenomena"),
}

TRACED = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

# Functions whose batch size is recorded, by the name of their state argument.
ROWS_ARG = {
    "diffnet.forward": "x",
    "diffnet.grad": "x",
    "envsuite.reward": "x",
    "flowcore.ode_project": "s",
}

# name -> (unit, better); the order is the order of BENCHMARK.json.
RATIO_METRICS = {
    "diffnet.forward.rows_per_call": ("rows/call", "higher"),
    "diffnet.grad.rows_per_call": ("rows/call", "higher"),
    "envsuite.reward.rows_per_call": ("rows/call", "higher"),
    "rollout.projection_rows": ("count", "lower"),
    "rollout.instant_rewards_used_frac": ("frac", "higher"),
    "advantage.adae_columns": ("count", "lower"),
    "advantage.fallback_frac": ("frac", "lower"),
    "trainer.clip_frac": ("frac", "lower"),
    "tracing.untraced_run_s": ("s", "lower"),
    "tracing.traced_run_s": ("s", "lower"),
    "tracing_overhead_frac": ("frac", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    out = {}
    for fn in TRACED:
        out[f"{fn}.calls"] = ("count", "lower")
        out[f"{fn}.total_ms"] = ("ms", "lower")
        out[f"{fn}.self_ms"] = ("ms", "lower")
    out.update(RATIO_METRICS)
    return out


def _positional_index(fn, arg: str) -> int | None:
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index(arg) if arg in params else None


def _bound_arguments(fn, args, kwargs) -> dict | None:
    """Call arguments by parameter name, defaults filled; None if they no longer bind."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    return bound.arguments


def _row_count(x) -> int:
    return len(x) if np.ndim(x) == 2 else 1


@contextlib.contextmanager
def patched(modules: dict, make_wrapper, names=TRACED):
    """Replace ``module.function`` for each present name; restore on exit.

    Yields the list of names that were absent from their module.
    """
    originals, absent = [], []
    try:
        for qualified in names:
            module_name, fname = qualified.split(".")
            module = modules[module_name]
            fn = getattr(module, fname, None)
            if not callable(fn):
                absent.append(qualified)
                continue
            originals.append((module, fname, fn))
            setattr(module, fname, functools.wraps(fn)(make_wrapper(qualified, fn)))
        yield absent
    finally:
        for module, fname, fn in reversed(originals):
            setattr(module, fname, fn)


class CallTimer:
    """Untraced timing of a few top-level calls: two clock reads per call."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}

    def make_wrapper(self, qualified: str, fn):
        durations = self.durations.setdefault(qualified, [])
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            durations.append(clock() - t0)
            return result

        return timed


class Tracer:
    """Span recorder; spans stay in memory until ``save``."""

    def __init__(self):
        self.names = list(TRACED)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self._stack = [-1]
        self._op = [-1]
        # per-span facts observed at call boundaries
        self.uses_instant_rewards: dict[int, bool] = {}  # train_step span -> flag
        self.adae_columns: dict[int, tuple[int, int]] = {}  # adae span -> (columns, fallback)
        self.clip_fractions: dict[int, float] = {}  # surrogate span -> clip fraction
        self.absent: list[str] = []

    @contextlib.contextmanager
    def installed(self, modules: dict, op_id: int):
        self._op[0] = op_id
        with patched(modules, self._make_wrapper) as absent:
            self.absent = absent
            yield self

    def _make_wrapper(self, qualified: str, fn):
        nid = self._ids[qualified]
        name, parent, op, start, end, rows = self.name, self.parent, self.op, self.start, self.end, self.rows
        stack, current_op = self._stack, self._op
        clock = time.perf_counter
        observe = self._observer(qualified, fn)
        row_arg = ROWS_ARG.get(qualified)
        row_pos = _positional_index(fn, row_arg) if row_arg else None

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op.append(current_op[0])
            start.append(0.0)
            end.append(0.0)
            if row_pos is None:
                rows.append(0)
            else:
                rows.append(_row_count(args[row_pos] if len(args) > row_pos else kwargs[row_arg]))
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        return traced

    def _observer(self, qualified: str, fn):
        if qualified == "trainer.train_step":
            def observe(idx, args, kwargs, result):
                bound = _bound_arguments(fn, args, kwargs)
                config = getattr(bound.get("state"), "config", None) if bound else None
                self.uses_instant_rewards[idx] = bool(
                    config is not None
                    and getattr(config, "estimator", None) == "vgpo"
                    and getattr(config, "tcrm_enabled", False)
                )
            return observe
        if qualified == "advantage.adae":
            def observe(idx, args, kwargs, result):
                bound = _bound_arguments(fn, args, kwargs)
                if bound is None or "q" not in bound or "eps_std" not in bound:
                    return
                q = np.asarray(bound["q"], dtype=np.float64)
                # group members run along axis -2; every other index is a column
                std = q.std(axis=-2)
                self.adae_columns[idx] = (int(std.size), int((std < bound["eps_std"]).sum()))
            return observe
        if qualified == "trainer.surrogate_loss_and_grad":
            def observe(idx, args, kwargs, result):
                clip = getattr(result, "clip_fraction", None)
                if clip is not None:
                    self.clip_fractions[idx] = float(clip)
            return observe
        return None

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span: name id (into ``names``), start, end, parent, op id, rows."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_table(self, op_id: int) -> dict[str, dict[str, float]]:
        """calls, total_ms and self_ms per traced function for one operation.

        Self time is the span's duration minus the durations of its child
        spans; calls are single-threaded, so children never overlap.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        mask = a["op"] == op_id
        names = a["name"][mask]
        calls = np.bincount(names, minlength=n_names)
        total = np.bincount(names, weights=dur[mask], minlength=n_names)
        selft = np.bincount(names, weights=own[mask], minlength=n_names)
        return {
            fn: {"calls": int(calls[i]), "total_ms": float(total[i] * 1e3), "self_ms": float(selft[i] * 1e3)}
            for i, fn in enumerate(self.names)
        }

    def ratios(self, op_id: int) -> dict[str, float]:
        """Counts and ratios measured at the layer boundaries of one operation."""
        a = self.arrays()
        mask = a["op"] == op_id
        out = {}
        for fn in ("diffnet.forward", "diffnet.grad", "envsuite.reward"):
            sel = mask & (a["name"] == self._ids[fn])
            calls = int(sel.sum())
            out[f"{fn}.rows_per_call"] = float(a["rows"][sel].sum() / calls) if calls else 0.0

        # projections made inside a training step, and those whose step fed
        # instant rewards into its advantages
        train_step = self._enclosing(a, self._ids["trainer.train_step"])
        proj = mask & (a["name"] == self._ids["flowcore.ode_project"]) & (train_step >= 0)
        computed = int(a["rows"][proj].sum())
        used = sum(
            int(r) for r, step in zip(a["rows"][proj], train_step[proj])
            if self.uses_instant_rewards.get(int(step), False)
        )
        out["rollout.projection_rows"] = float(computed)
        out["rollout.instant_rewards_used_frac"] = used / computed if computed else 0.0

        cols = [v for idx, v in self.adae_columns.items() if a["op"][idx] == op_id]
        columns = sum(c for c, _ in cols)
        out["advantage.adae_columns"] = float(columns)
        out["advantage.fallback_frac"] = sum(f for _, f in cols) / columns if columns else 0.0
        clips = [v for idx, v in self.clip_fractions.items() if a["op"][idx] == op_id]
        out["trainer.clip_frac"] = float(np.mean(clips)) if clips else 0.0
        return out

    @staticmethod
    def _enclosing(a: dict, target: int) -> np.ndarray:
        """Index of the nearest ancestor span named ``target`` (-1 if none)."""
        parent, name = a["parent"], a["name"]
        found = np.full(len(parent), -1)
        cursor = parent.copy()
        while True:
            live = (cursor >= 0) & (found < 0)
            if not live.any():
                return found
            hit = live.copy()
            hit[live] = name[cursor[live]] == target
            found[hit] = cursor[hit]
            step = live & ~hit
            cursor[step] = parent[cursor[step]]
            cursor[~step] = -1
