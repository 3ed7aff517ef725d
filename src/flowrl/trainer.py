"""Optimization loop: flow-matching pretraining, policy snapshots, the clipped
surrogate objective with KL regularization, and gradient-ascent training steps.

Every random draw derives from the run seed through tagged seed sequences
((seed, stream, step, ...)), so whole runs replay bit-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import advantage as adv
from . import diffnet, envsuite, flowcore, rollout
from .diffnet import AdamState, Architecture
from .envsuite import TaskSpec, default_task
from .flowcore import NoiseSchedule
from .records import MetricRecord
from .rollout import RolloutBatch

ESTIMATORS = ("flow-grpo", "vgpo")

# seed-stream tags; every generator is seeded as (seed, stream, ...)
STREAM_PRETRAIN = 0
STREAM_CONTEXT = 1
STREAM_ROLLOUT = 2
STREAM_EVAL = 3


@dataclass(frozen=True)
class TrainConfig:
    """Full experiment configuration with desk-scale defaults."""

    task: TaskSpec = field(default_factory=default_task)
    hidden_dims: tuple[int, ...] = (64, 64)
    group_size: int = 8
    sampling_steps: int = 10
    train_steps: int = 1000
    batch_contexts: int = 4
    gamma: float = 0.9
    k: float = 0.5
    noise_level: float = 0.7
    eps_clip: float = 0.2
    beta_kl: float = 0.01
    lr: float = 1e-3
    estimator: str = "vgpo"
    tcrm_enabled: bool = True
    seed: int = 0
    inner_epochs: int = 1
    pretrain_steps: int = 3000
    pretrain_lr: float = 1e-3
    pretrain_batch: int = 128
    eval_every: int = 25
    eval_samples: int = 256
    accuracy_threshold: float = 0.5
    shared_initial_noise: bool = False
    checkpoint_every: int = 0
    eps_std: float = adv.DEFAULT_EPS_STD
    eps_mean: float = adv.DEFAULT_EPS_MEAN

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.estimator == "flow-grpo" and self.tcrm_enabled:
            raise ValueError("the flow-grpo estimator requires tcrm_enabled = false")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if self.sampling_steps < 2:
            raise ValueError("sampling_steps must be >= 2")
        if self.train_steps < 0 or self.pretrain_steps < 0:
            raise ValueError("step counts must be >= 0")
        if self.batch_contexts < 1 or self.inner_epochs < 1:
            raise ValueError("batch_contexts and inner_epochs must be >= 1")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.k < 0.0:
            raise ValueError("k must be >= 0")
        if self.noise_level < 0.0:
            raise ValueError("noise_level must be >= 0")
        if self.eps_clip <= 0.0:
            raise ValueError("eps_clip must be > 0")
        if self.beta_kl < 0.0:
            raise ValueError("beta_kl must be >= 0")
        if self.lr <= 0.0 or self.pretrain_lr <= 0.0:
            raise ValueError("learning rates must be > 0")
        if self.pretrain_batch < 1 or self.eval_samples < 1 or self.eval_every < 1:
            raise ValueError("pretrain_batch, eval_samples, eval_every must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables)")
        if self.eps_std <= 0.0 or self.eps_mean <= 0.0:
            raise ValueError("eps_std and eps_mean must be > 0")
        if not 0.0 < self.accuracy_threshold < 1.0:
            raise ValueError("accuracy_threshold must be in (0, 1)")

    def architecture(self) -> Architecture:
        return diffnet.for_task(self.task.state_dim, self.task.context_count, self.hidden_dims)

    def schedule(self) -> NoiseSchedule:
        return NoiseSchedule(a=self.noise_level, num_steps=self.sampling_steps)

    def reward_model(self) -> envsuite.RewardModel:
        return envsuite.RewardModel(task=self.task, kind="projected")


@dataclass
class PolicyTriplet:
    """Current, old (rollout-generating), and fixed reference parameters."""

    theta: np.ndarray
    theta_old: np.ndarray
    theta_ref: np.ndarray

    @classmethod
    def from_pretrained(cls, params: np.ndarray) -> "PolicyTriplet":
        return cls(theta=params.copy(), theta_old=params.copy(), theta_ref=params.copy())

    def refresh_old(self) -> None:
        self.theta_old = self.theta.copy()


@dataclass(frozen=True)
class SurrogateResult:
    """Clipped surrogate objective (maximize) and its exact parameter gradient."""

    value: float
    grad: np.ndarray
    kl: float
    mean_ratio: float
    clip_fraction: float
    nonfinite_contexts: tuple[int, ...] = ()  # contexts of rows with a non-finite gradient term


@dataclass(frozen=True)
class StepRecord:
    """Per-training-step statistics."""

    step: int
    mean_terminal_reward: float
    group_reward_std_mean: float
    kl_mean: float
    surrogate: float
    update_norm: float


@dataclass
class TrainState:
    config: TrainConfig
    arch: Architecture
    triplet: PolicyTriplet
    adam: AdamState


def pretrain(
    arch: Architecture,
    task: TaskSpec,
    steps: int,
    seed: int,
    lr: float = 1e-3,
    batch_size: int = 128,
) -> np.ndarray:
    """Fit the velocity field by flow matching on the task's data mixture.

    Contexts are fed to the net but carry no information (the data ignores
    them), which leaves the conditional mass for RL to move. Returns the
    trained parameters; the caller snapshots them as the reference policy.
    """
    params = diffnet.init_params(arch, seed)
    if steps == 0:
        return params
    rng = np.random.default_rng(np.random.SeedSequence((seed, STREAM_PRETRAIN)))
    state = diffnet.adam_init(params.size)
    for step in range(steps):
        x0 = envsuite.sample_data(task, None, rng, n=batch_size)
        x1 = rng.standard_normal(x0.shape)
        tau = rng.uniform(0.0, 1.0, batch_size)
        ctx = rng.integers(0, task.context_count, batch_size)
        loss, g = flowcore.fm_loss_and_grad(arch, params, x0, x1, tau, ctx)
        if not np.isfinite(loss):
            raise RuntimeError(f"pretraining diverged at step {step}: loss={loss}")
        params, state = diffnet.adam_update(params, g, state, lr)
    return params


def compute_advantages(batch: RolloutBatch, config: TrainConfig) -> adv.AdvantageTable:
    """(B, G, T) advantage table of a rollout batch under the configured estimator.

    flow-grpo group-normalizes the terminal rewards broadcast over the
    timesteps. vgpo builds discounted cumulative values (from instant rewards
    when tcrm is enabled, otherwise the same terminal broadcast, whose
    temporal mean makes every weight exactly one) and applies the adaptive
    dual estimator.
    """
    terminal = np.repeat(batch.terminal_rewards[..., None], batch.num_steps, axis=-1)
    if config.estimator == "flow-grpo":
        table = adv.group_relative(terminal, config.eps_std)
        return adv.AdvantageTable(A=table, estimator="flow-grpo", k=0.0, eps_std=config.eps_std)
    if config.tcrm_enabled:
        q = adv.cumulative_values(batch.instant_rewards, config.gamma)
        omega = adv.value_weights(q, config.eps_mean)
    else:
        q = terminal
        omega = np.ones_like(q)
    return adv.adae(q, config.k, omega, config.eps_std)


def clipped_term(ratio, advantages, eps_clip: float):
    """Element-wise pessimistic surrogate min(r*A, clip(r, 1-eps, 1+eps)*A)."""
    ratio = np.asarray(ratio, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    return np.minimum(ratio * advantages, np.clip(ratio, 1.0 - eps_clip, 1.0 + eps_clip) * advantages)


def _step_rows(batch: RolloutBatch) -> dict:
    """Every (slot, member, step) transition of a batch as one row.

    The schedule scalars (clamped tau, sigma^2, d mean / d v) are worked out
    once per timestep and repeated per row as (n, 1) columns.
    """
    sched = batch.schedule
    b, g, t = batch.instant_rewards.shape
    d = batch.states.shape[-1]
    taus = sched.tau_grid()
    per_step = np.array([
        (sched.clamp(tau), flowcore.sigma(tau, sched) ** 2,
         flowcore.mean_velocity_coeff(tau, sched.dtau, sched))
        for tau in taus
    ])
    tc, s2, coeff = np.tile(per_step, (b * g, 1)).T[:, :, None]
    return {
        "x": batch.states[:, :, :-1].reshape(-1, d),
        "x_next": batch.states[:, :, 1:].reshape(-1, d),
        "tau": np.tile(taus, b * g),
        "context": np.repeat(batch.contexts, g * t),
        "tau_clamped": tc,
        "s2": s2,
        "coeff": coeff,
    }


def reference_means(arch: Architecture, theta_ref: np.ndarray, batch: RolloutBatch) -> np.ndarray:
    """Step means of the reference policy over every row of a batch."""
    rows = _step_rows(batch)
    v = diffnet.forward(arch, theta_ref, rows["x"], rows["tau"], rows["context"])
    return flowcore.step_mean(rows["x"], v, rows["tau_clamped"], rows["s2"], batch.schedule.dtau)


def surrogate_loss_and_grad(
    arch: Architecture,
    triplet: PolicyTriplet,
    batch: RolloutBatch,
    advantages: adv.AdvantageTable,
    eps_clip: float,
    beta_kl: float,
    ref_means: np.ndarray | None = None,
) -> SurrogateResult:
    """Clipped surrogate objective over a rollout batch and its exact gradient.

    Ratios are exp(logp_theta - logp_old) where logp_theta comes from the
    current policy's step distribution recomputed at the stored states;
    advantages and the stored old log-densities are constants. The KL penalty
    compares the current and reference step means under the shared schedule;
    ``ref_means`` (from ``reference_means``) is computed here when not given.
    Gradients flow only through the current policy's means. Value and
    gradient are means over all B * G * T rows, i.e. the mean over groups of
    the per-group objective.
    """
    schedule = batch.schedule
    if schedule.a == 0.0:
        raise ValueError("policy optimization requires stochastic rollouts (a > 0)")
    if eps_clip <= 0.0:
        raise ValueError("eps_clip must be > 0")
    if advantages.A.shape != batch.logp_old.shape:
        raise ValueError(f"advantage shape {advantages.A.shape} != {batch.logp_old.shape}")
    if ref_means is None:
        ref_means = reference_means(arch, triplet.theta_ref, batch)
    rows = _step_rows(batch)
    x_next = rows["x_next"]
    n_rows = x_next.shape[0]
    v, activations = diffnet.forward(
        arch, triplet.theta, rows["x"], rows["tau"], rows["context"], keep_activations=True
    )
    mean = flowcore.step_mean(rows["x"], v, rows["tau_clamped"], rows["s2"], schedule.dtau)
    var = rows["s2"][:, 0] * schedule.dtau
    dist_cur = flowcore.StepDistribution(mean=mean, var=var)
    ratio = np.exp(flowcore.transition_logpdf(x_next, dist_cur) - batch.logp_old.ravel())
    a = advantages.A.ravel()
    unclipped = ratio * a
    surrogate_terms = clipped_term(ratio, a, eps_clip)
    kl_terms = flowcore.kl_step(dist_cur, flowcore.StepDistribution(mean=ref_means, var=var))
    # d(objective)/d(mean): the unclipped branch contributes A*r*dlogp/dmean,
    # the saturated clip branch contributes nothing; a NaN term stays NaN
    kappa = np.where(surrogate_terms < unclipped, 0.0, unclipped)
    dj_dmean = (
        kappa[:, None] * (x_next - mean) - beta_kl * (mean - ref_means)
    ) / (n_rows * var[:, None])
    upstream = rows["coeff"] * dj_dmean
    pgrad, _ = diffnet.backward(arch, triplet.theta, activations, upstream)
    bad_rows = ~np.isfinite(upstream).all(axis=1)
    return SurrogateResult(
        value=float(surrogate_terms.mean() - beta_kl * kl_terms.mean()),
        grad=pgrad,
        kl=float(kl_terms.mean()),
        mean_ratio=float(ratio.mean()),
        clip_fraction=float((ratio < 1.0 - eps_clip).mean() + (ratio > 1.0 + eps_clip).mean()),
        nonfinite_contexts=tuple(np.unique(rows["context"][bad_rows]).tolist()),
    )


def init_state(config: TrainConfig) -> TrainState:
    """Pretrain the policy and set up the triplet and optimizer."""
    arch = config.architecture()
    params = pretrain(
        arch,
        config.task,
        config.pretrain_steps,
        config.seed,
        lr=config.pretrain_lr,
        batch_size=config.pretrain_batch,
    )
    return TrainState(
        config=config,
        arch=arch,
        triplet=PolicyTriplet.from_pretrained(params),
        adam=diffnet.adam_init(params.size),
    )


def rollout_batch(state: TrainState, step_index: int) -> RolloutBatch:
    """Sample the step's context batch and one rollout group per context."""
    cfg = state.config
    ctx_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, STREAM_CONTEXT, step_index)))
    contexts = [envsuite.sample_context(cfg.task, ctx_rng) for _ in range(cfg.batch_contexts)]
    seeds = [
        np.random.SeedSequence((cfg.seed, STREAM_ROLLOUT, step_index, slot, context))
        for slot, context in enumerate(contexts)
    ]
    return rollout.rollout_group(
        state.arch,
        state.triplet.theta_old,
        contexts,
        cfg.group_size,
        cfg.schedule(),
        cfg.reward_model(),
        seeds,
        shared_initial_noise=cfg.shared_initial_noise,
    )


def update_policy(
    state: TrainState,
    batch: RolloutBatch,
    table: adv.AdvantageTable,
    step_index: int,
) -> tuple[float, float, float]:
    """Apply the configured number of ascent epochs on a rollout batch.

    Returns (mean surrogate value, mean KL, update norm) of the applied
    updates. Mutates the triplet's current parameters and the Adam state.
    A non-finite gradient stops the run before it reaches the parameters.
    """
    cfg = state.config
    theta_before = state.triplet.theta.copy()
    ref_means = reference_means(state.arch, state.triplet.theta_ref, batch)
    values, kls = [], []
    for _ in range(cfg.inner_epochs):
        res = surrogate_loss_and_grad(
            state.arch, state.triplet, batch, table, cfg.eps_clip, cfg.beta_kl, ref_means
        )
        if not np.all(np.isfinite(res.grad)):
            contexts = list(res.nonfinite_contexts)
            raise RuntimeError(f"non-finite policy gradient at step {step_index}: contexts {contexts}")
        values.append(res.value)
        kls.append(res.kl)
        # ascent on the surrogate = descent on its negation
        state.triplet.theta, state.adam = diffnet.adam_update(
            state.triplet.theta, -res.grad, state.adam, cfg.lr
        )
    update_norm = float(np.linalg.norm(state.triplet.theta - theta_before))
    return float(np.mean(values)), float(np.mean(kls)), update_norm


def train_step(state: TrainState, step_index: int) -> StepRecord:
    """One outer optimization step: snapshot, rollouts, advantages, update."""
    state.triplet.refresh_old()
    batch = rollout_batch(state, step_index)
    table = compute_advantages(batch, state.config)
    surrogate, kl_mean, update_norm = update_policy(state, batch, table, step_index)
    terminal = batch.terminal_rewards
    return StepRecord(
        step=step_index,
        mean_terminal_reward=float(terminal.mean()),
        group_reward_std_mean=float(terminal.std(axis=-1).mean()),
        kl_mean=kl_mean,
        surrogate=surrogate,
        update_norm=update_norm,
    )


def evaluate(arch: Architecture, params: np.ndarray, config: TrainConfig, step: int) -> dict:
    """Noise-free policy assessment: ODE samples per context, scored by the
    task reward, thresholded accuracy, and the mixture-density quality oracle."""
    task = config.task
    rm = config.reward_model()
    schedule = config.schedule()
    rewards, qualities = [], []
    for context in range(task.context_count):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, STREAM_EVAL, step, context)))
        samples = flowcore.sample_terminal_ode(arch, params, schedule, context, config.eval_samples, rng)
        rewards.append(envsuite.reward(rm, samples, context))
        qualities.append(envsuite.quality(task, samples))
    r = np.concatenate(rewards)
    q = np.concatenate(qualities)
    return {
        "mean_reward": float(r.mean()),
        "accuracy": float((r > config.accuracy_threshold).mean()),
        "quality_mean": float(q.mean()),
    }


@dataclass
class RunResult:
    config: TrainConfig
    metrics: list[MetricRecord]
    params: np.ndarray
    params_ref: np.ndarray


def run(config: TrainConfig, on_metric=None, on_checkpoint=None) -> RunResult:
    """Full experiment: pretrain, then S training steps with periodic
    deterministic evaluation.

    ``on_metric(record)`` fires for every evaluation record as it is produced
    (the caller can flush incrementally); ``on_checkpoint(step, params)``
    fires on the configured cadence.
    """
    t0 = time.perf_counter()
    state = init_state(config)
    records: list[MetricRecord] = []
    window: list[StepRecord] = []

    def emit(step: int) -> None:
        stats = evaluate(state.arch, state.triplet.theta, config, step)
        record = MetricRecord(
            step=step,
            mean_reward=stats["mean_reward"],
            accuracy=stats["accuracy"],
            quality_mean=stats["quality_mean"],
            group_reward_std_mean=float(np.mean([s.group_reward_std_mean for s in window])) if window else 0.0,
            kl_mean=float(np.mean([s.kl_mean for s in window])) if window else 0.0,
            update_norm=float(np.mean([s.update_norm for s in window])) if window else 0.0,
            wallclock_ms=(time.perf_counter() - t0) * 1e3,
        )
        window.clear()
        records.append(record)
        if on_metric is not None:
            on_metric(record)

    emit(0)
    for step_index in range(1, config.train_steps + 1):
        window.append(train_step(state, step_index))
        if step_index % config.eval_every == 0 or step_index == config.train_steps:
            emit(step_index)
        if (
            on_checkpoint is not None
            and config.checkpoint_every
            and step_index % config.checkpoint_every == 0
        ):
            on_checkpoint(step_index, state.triplet.theta.copy())
    return RunResult(
        config=config,
        metrics=records,
        params=state.triplet.theta.copy(),
        params_ref=state.triplet.theta_ref.copy(),
    )


def preset_overrides(name: str) -> dict:
    """Estimator/tcrm/k switch combinations for the ablation grid."""
    presets = {
        "vgpo": {"estimator": "vgpo", "tcrm_enabled": True},
        "flow-grpo": {"estimator": "flow-grpo", "tcrm_enabled": False, "k": 0.0},
        "tcrm-only": {"estimator": "vgpo", "tcrm_enabled": True, "k": 0.0},
        "adae-only": {"estimator": "vgpo", "tcrm_enabled": False},
    }
    if name not in presets:
        raise ValueError(f"unknown preset {name!r} (have {sorted(presets)})")
    return presets[name]


def apply_preset(config: TrainConfig, name: str) -> TrainConfig:
    return replace(config, **preset_overrides(name))
