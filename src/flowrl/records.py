"""Logged measurement records shared by the trainer and the harness."""

from __future__ import annotations

from dataclasses import dataclass

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

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        if self.wallclock_ms < 0.0:
            raise ValueError("wallclock_ms must be >= 0")

    def metrics_json(self) -> dict:
        """Deterministic fields for the metrics stream."""
        return {
            "schema_version": SCHEMA_VERSION,
            "step": self.step,
            "mean_reward": self.mean_reward,
            "accuracy": self.accuracy,
            "quality_mean": self.quality_mean,
            "group_reward_std_mean": self.group_reward_std_mean,
            "kl_mean": self.kl_mean,
            "update_norm": self.update_norm,
        }

    def timing_json(self) -> dict:
        return {"step": self.step, "wallclock_ms": self.wallclock_ms}

    @classmethod
    def from_metrics_json(cls, payload: dict) -> "MetricRecord":
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported metrics schema: {payload.get('schema_version')}")
        return cls(
            step=int(payload["step"]),
            mean_reward=float(payload["mean_reward"]),
            accuracy=float(payload["accuracy"]),
            quality_mean=float(payload["quality_mean"]),
            group_reward_std_mean=float(payload["group_reward_std_mean"]),
            kl_mean=float(payload["kl_mean"]),
            update_norm=float(payload["update_norm"]),
            wallclock_ms=0.0,  # the metrics stream carries no wallclock
        )
