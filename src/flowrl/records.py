"""Logged measurement records shared by the trainer and the harness."""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MetricRecord:
    """One evaluation-point measurement.

    Reward/accuracy/quality come from deterministic ODE evaluation samples;
    the remaining statistics are averaged over the training steps since the
    previous evaluation (zero for the pretrained-policy record at step 0).
    ``wallclock_ms`` is kept out of the deterministic metrics stream and goes
    to a timing sidecar instead.
    """

    step: int
    mean_reward: float
    accuracy: float
    quality_mean: float
    group_reward_std_mean: float
    kl_mean: float
    update_norm: float
    wallclock_ms: float

    def metrics_json(self) -> dict:
        """Deterministic fields for the metrics stream: the schema version,
        then ``METRIC_FIELDS``."""
        return {"schema_version": SCHEMA_VERSION, **{name: getattr(self, name) for name in METRIC_FIELDS}}

    def timing_json(self) -> dict:
        return {"step": self.step, "wallclock_ms": self.wallclock_ms}

    @classmethod
    def from_metrics_json(cls, payload) -> "MetricRecord":
        """Read one ``metrics_json`` line; any other content, a non-finite
        number or an accuracy outside [0, 1] raises ValueError naming the field."""
        if not isinstance(payload, dict):
            raise ValueError(f"metrics line is not a JSON object: {payload!r}")
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported metrics schema: {payload.get('schema_version')}")
        values = {}
        for name in METRIC_FIELDS:
            if name not in payload:
                raise ValueError(f"metrics line lacks {name!r}")
            value, kind = payload[name], int if name == "step" else (int, float)
            # json also reads NaN, Infinity and integers beyond the float range
            if isinstance(value, bool) or not isinstance(value, kind) or not abs(value) <= sys.float_info.max:
                raise ValueError(f"metrics line: {name}={value!r} is not a finite number")
            values[name] = value if name == "step" else float(value)
        if not 0.0 <= values["accuracy"] <= 1.0:
            raise ValueError(f"metrics line: accuracy={values['accuracy']!r} is outside [0, 1]")
        return cls(**values, wallclock_ms=0.0)  # the metrics stream carries no wallclock


# the metrics stream's fields, in field order; the wallclock goes only to the timing sidecar
METRIC_FIELDS = tuple(f.name for f in fields(MetricRecord) if f.name != "wallclock_ms")
