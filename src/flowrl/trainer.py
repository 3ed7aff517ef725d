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
from .envsuite import TaskSpec
from .flowcore import NoiseSchedule
from .records import MetricRecord
from .rollout import RolloutBatch

# seed-stream tags; every generator is seeded as (seed, stream, ...)
STREAM_PRETRAIN = 0
STREAM_CONTEXT = 1
STREAM_ROLLOUT = 2
STREAM_EVAL = 3

# pretraining steps whose theta-independent inputs are built together
PRETRAIN_CHUNK = 8


@dataclass(frozen=True)
class TrainConfig:
    """Full experiment configuration with desk-scale defaults."""

    task: TaskSpec = field(default_factory=TaskSpec)
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
    tcrm_enabled: bool = True  # dense per-step rewards; False: the terminal reward only
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
        if self.noise_level <= 0.0:
            raise ValueError("noise_level must be > 0: policy optimization needs stochastic rollouts")
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
        # one schedule per config, so its step table is worked out once per run
        object.__setattr__(self, "_schedule", NoiseSchedule(a=self.noise_level, num_steps=self.sampling_steps))

    def architecture(self) -> Architecture:
        return diffnet.for_task(self.task.state_dim, self.task.context_count, self.hidden_dims)

    def schedule(self) -> NoiseSchedule:
        return self._schedule


# tcrm/k switch combinations of the ablation grid; flow-grpo is both off
PRESETS = {
    "vgpo": {"tcrm_enabled": True},
    "flow-grpo": {"tcrm_enabled": False, "k": 0.0},
    "tcrm-only": {"tcrm_enabled": True, "k": 0.0},
    "adae-only": {"tcrm_enabled": False},
}


def apply_preset(config: TrainConfig, name: str) -> TrainConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (have {sorted(PRESETS)})")
    return replace(config, **PRESETS[name])


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
    """The current parameters, which also generate each step's rollouts (the
    surrogate's old log-densities are stored in the batch), and the fixed
    reference parameters of the KL penalty."""

    config: TrainConfig
    arch: Architecture
    theta: np.ndarray
    theta_ref: np.ndarray
    adam: AdamState


def pretrain(config: TrainConfig) -> np.ndarray:
    """Fit the velocity field by flow matching on the task's data mixture.

    The recipe is the config's architecture, task, seed, ``pretrain_steps``,
    ``pretrain_lr`` and ``pretrain_batch``; no other field changes the
    result. Contexts are fed to the net but carry no information (the data
    ignores them), which leaves the conditional mass for RL to move. Returns
    the trained parameters, from which ``init_state`` and ``run`` start RL.

    Each step draws, in this order, the mode uniforms, one (2, n, d) normal
    block (the data noise, then x1), the times and the contexts. Everything
    that does not depend on theta (the data rows, the target x1 - x0 and the
    feature matrix at x_tau) is built for ``PRETRAIN_CHUNK`` steps at a time,
    into arrays set up once like the layer buffers and the gradient vector.
    Each step then runs only the network and its gradient, the loss check
    and Adam: a non-finite loss stops pretraining at the step that produced
    it, before that step's update.
    """
    arch, task, n = config.architecture(), config.task, config.pretrain_batch
    params = diffnet.init_params(arch, config.seed)
    layers = diffnet.unpack(arch, params)
    grad = np.empty_like(params)
    grads = diffnet.unpack(arch, grad)
    hs = diffnet.layer_buffers(layers, n)
    chunk, d = PRETRAIN_CHUNK, arch.state_dim
    uniforms, taus = np.empty((chunk, n)), np.empty((chunk, n))
    normals = np.empty((chunk, 2, n, d))
    contexts = np.empty((chunk, n), dtype=np.int64)
    targets = np.empty((chunk, n, d))
    phi = np.zeros((chunk, n, arch.input_dim))
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, STREAM_PRETRAIN)))
    state = diffnet.adam_init(params.size)
    for start in range(0, config.pretrain_steps, chunk):
        k = min(chunk, config.pretrain_steps - start)
        for i in range(k):
            rng.random(out=uniforms[i])
            rng.standard_normal(out=normals[i])
            rng.random(out=taus[i])
            contexts[i] = rng.integers(0, task.context_count, n)
        x0 = envsuite.sample_data(task, uniforms[:k], normals[:k, 0])
        x1 = normals[:k, 1]
        np.subtract(x1, x0, out=targets[:k])
        tau = taus[:k, :, None]
        rows = phi[:k].reshape(k * n, arch.input_dim)
        diffnet.write_state_time(arch, rows, ((1.0 - tau) * x0 + tau * x1).reshape(k * n, d), taus[:k].ravel())
        one_hot = rows[:, d + diffnet.TIME_FEATURES:]
        one_hot.fill(0.0)
        one_hot[np.arange(k * n), contexts[:k].ravel()] = 1.0
        for i in range(k):
            resid = flowcore.fm_loss_and_grad(layers, phi[i], hs, targets[i], grads)
            # the sum of squares overflows, or is NaN, exactly when the loss is
            if not np.isfinite(np.vdot(resid, resid)):
                raise RuntimeError(f"pretraining diverged at step {start + i}: loss={flowcore.fm_loss(resid)}")
            diffnet.adam_update(params, grad, state, config.pretrain_lr)
    return params


def compute_advantages(batch: RolloutBatch, config: TrainConfig) -> np.ndarray:
    """(B, G, T) advantage table of a rollout batch: the adaptive dual
    estimator on per-step values.

    With tcrm enabled the values are the discounted cumulative instant
    rewards, weighted by ``value_weights``; otherwise they are the terminal
    rewards broadcast over the timesteps, with unit weights. With tcrm off
    and k = 0 this is GRPO's group-normalized terminal reward (the flow-grpo
    preset).
    """
    if config.tcrm_enabled:
        q = adv.cumulative_values(batch.instant_rewards, config.gamma)
        omega = adv.value_weights(q, config.eps_mean)
    else:
        q = np.repeat(batch.terminal_rewards[..., None], batch.num_steps, axis=-1)
        omega = np.ones_like(q)
    return adv.adae(q, config.k, omega, config.eps_std)


def clipped_term(ratio, advantages, eps_clip: float):
    """Element-wise pessimistic surrogate min(r*A, clip(r, 1-eps, 1+eps)*A)."""
    ratio = np.asarray(ratio, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    return np.minimum(ratio * advantages, np.clip(ratio, 1.0 - eps_clip, 1.0 + eps_clip) * advantages)


def step_rows(arch: Architecture, theta_ref: np.ndarray, batch: RolloutBatch, advantages) -> dict:
    """The surrogate's inputs, built and checked once per batch: every
    (slot, member, step) transition as one row, with the rows' feature
    matrix ``phi``, the reference policy's step means, the stored old
    log-densities, the advantages and the step variances.

    The schedule's constants (clamped tau, sigma^2, d mean / d v) come from
    its step table and are repeated per row as (n, 1) columns. ``phi`` is a
    view of the features the rollout built, in the same row order; the
    reference policy's pass over it is the one network evaluation made here.
    A deterministic (a = 0) batch, which has no transition densities, and an
    advantage table not shaped (B, G, T) like the batch are rejected.
    """
    sched = batch.schedule
    if batch.logp_old is None:
        raise ValueError("policy optimization requires stochastic rollouts (a > 0)")
    if np.shape(advantages) != batch.logp_old.shape:
        raise ValueError(f"advantage shape {np.shape(advantages)} != {batch.logp_old.shape}")
    b, g, t = batch.logp_old.shape
    d = batch.states.shape[-1]
    # the table's constants per row: row (slot, member, step) takes its step's
    per_row = np.empty((len(sched.table), b * g, t))
    per_row[:] = sched.table[:, None, :]
    tc, s2, var, _, coeff = per_row.reshape(len(sched.table), -1, 1)
    x = batch.states[:, :, :-1].reshape(-1, d)
    context = np.repeat(batch.contexts, g * t)
    phi = batch.phi.reshape(-1, arch.input_dim)
    layers = diffnet.unpack(arch, theta_ref)
    v_ref = diffnet.mlp(layers, phi, diffnet.layer_buffers(layers, x.shape[0]))
    return {
        "x": x,
        "x_next": batch.states[:, :, 1:].reshape(-1, d),
        "context": context,
        "phi": phi,
        "tau_clamped": tc,
        "s2": s2,
        "coeff": coeff,
        "dtau": sched.dtau,
        "var": var[:, 0],
        "ref_mean": flowcore.step_mean(x, v_ref, tc, s2, sched.dtau),
        "logp_old": batch.logp_old.ravel(),
        "advantage": np.ravel(advantages),
    }


def surrogate_loss_and_grad(
    arch: Architecture, theta: np.ndarray, rows: dict, eps_clip: float, beta_kl: float, hs=None
) -> SurrogateResult:
    """Clipped surrogate objective over the ``step_rows`` of a rollout batch
    and its exact gradient.

    Ratios are exp(logp_theta - logp_old) where logp_theta comes from the
    current policy's step means at the stored states; advantages and the
    stored old log-densities are constants. The KL penalty compares the
    current and reference step means under the shared schedule. Gradients
    flow only through the current policy's means. Value and gradient are
    means over all B * G * T rows, i.e. the mean over groups of the
    per-group objective.

    ``hs``, when the caller has them, are the layer outputs of theta's
    ``diffnet.mlp`` pass over ``rows["phi"]``, one (n, fan_out) array per
    layer; they are read, never written. Without them the pass is run here,
    into buffers of this call.
    """
    x_next, ref_means, var, a = rows["x_next"], rows["ref_mean"], rows["var"], rows["advantage"]
    n_rows = x_next.shape[0]
    layers = diffnet.unpack(arch, theta)
    phi = rows["phi"]
    if hs is None:
        hs = diffnet.layer_buffers(layers, n_rows)
        diffnet.mlp(layers, phi, hs)
    v = hs[-1]
    mean = flowcore.step_mean(rows["x"], v, rows["tau_clamped"], rows["s2"], rows["dtau"])
    ratio = np.exp(flowcore.transition_logpdf(x_next, mean, var) - rows["logp_old"])
    unclipped = ratio * a
    surrogate_terms = clipped_term(ratio, a, eps_clip)
    kl_terms = flowcore.kl_step(mean, ref_means, var)
    # d(objective)/d(mean): the unclipped branch contributes A*r*dlogp/dmean,
    # the saturated clip branch contributes nothing; a NaN term stays NaN
    kappa = np.where(surrogate_terms < unclipped, 0.0, unclipped)
    dj_dmean = (
        kappa[:, None] * (x_next - mean) - beta_kl * (mean - ref_means)
    ) / (n_rows * var[:, None])
    upstream = rows["coeff"] * dj_dmean
    pgrad = np.empty_like(theta)
    diffnet.backward(layers, [phi, *hs[:-1]], upstream, diffnet.unpack(arch, pgrad))
    bad_rows = ~np.isfinite(upstream).all(axis=1)
    return SurrogateResult(
        value=float(surrogate_terms.mean() - beta_kl * kl_terms.mean()),
        grad=pgrad,
        kl=float(kl_terms.mean()),
        mean_ratio=float(ratio.mean()),
        clip_fraction=float((ratio < 1.0 - eps_clip).mean() + (ratio > 1.0 + eps_clip).mean()),
        nonfinite_contexts=tuple(np.unique(rows["context"][bad_rows]).tolist()),
    )


def init_state(config: TrainConfig, pretrained: np.ndarray) -> TrainState:
    """RL state starting from the pretrained parameters, which are also the
    reference policy. Both are copies, so the caller's array never changes."""
    theta = np.array(pretrained, dtype=np.float64)
    return TrainState(
        config=config,
        arch=config.architecture(),
        theta=theta,
        theta_ref=theta.copy(),
        adam=diffnet.adam_init(theta.size),
    )


def rollout_batch(state: TrainState, step_index: int) -> RolloutBatch:
    """Sample the step's context batch and one rollout group per context."""
    cfg = state.config
    ctx_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, STREAM_CONTEXT, step_index)))
    contexts = [envsuite.sample_context(cfg.task, ctx_rng) for _ in range(cfg.batch_contexts)]
    seeds = [(cfg.seed, STREAM_ROLLOUT, step_index, slot, context) for slot, context in enumerate(contexts)]
    return rollout.rollout_group(
        state.arch,
        state.theta,
        contexts,
        cfg.group_size,
        cfg.schedule(),
        cfg.task,
        seeds,
        shared_initial_noise=cfg.shared_initial_noise,
    )


def update_policy(
    state: TrainState,
    batch: RolloutBatch,
    advantages: np.ndarray,
    step_index: int,
) -> tuple[float, float, float]:
    """Apply the configured number of ascent epochs on a rollout batch.

    Returns (mean surrogate value, mean KL, update norm) of the applied
    updates. Updates the state's current parameters and Adam state in place.
    A non-finite gradient stops the run before it reaches the parameters.

    Precondition: the batch was sampled at the state's current theta, as
    ``rollout_batch`` does; its ``logp_old`` already assumes this. The first
    epoch therefore reads the batch's network pass instead of running it
    again; later epochs run theirs into buffers of their own.
    """
    cfg = state.config
    theta_before = state.theta.copy()
    rows = step_rows(state.arch, state.theta_ref, batch, advantages)
    hs = [h.reshape(-1, h.shape[-1]) for h in batch.hs]
    values, kls = [], []
    for epoch in range(cfg.inner_epochs):
        res = surrogate_loss_and_grad(
            state.arch, state.theta, rows, cfg.eps_clip, cfg.beta_kl, hs if epoch == 0 else None
        )
        if not np.all(np.isfinite(res.grad)):
            contexts = list(res.nonfinite_contexts)
            raise RuntimeError(f"non-finite policy gradient at step {step_index}: contexts {contexts}")
        values.append(res.value)
        kls.append(res.kl)
        # ascent on the surrogate = descent on its negation
        diffnet.adam_update(state.theta, -res.grad, state.adam, cfg.lr)
    update_norm = float(np.linalg.norm(state.theta - theta_before))
    return float(np.mean(values)), float(np.mean(kls)), update_norm


def train_step(state: TrainState, step_index: int) -> StepRecord:
    """One outer optimization step: rollouts, advantages, update."""
    batch = rollout_batch(state, step_index)
    advantages = compute_advantages(batch, state.config)
    surrogate, kl_mean, update_norm = update_policy(state, batch, advantages, step_index)
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
    task reward, thresholded accuracy, and the mixture-density quality oracle.

    The network's layer buffers are allocated once, first, and shared by
    every context's sampler; they are released before the samples are
    scored, so the scoring reuses their memory instead of raising the peak."""
    hs = diffnet.layer_buffers(diffnet.unpack(arch, params), config.eval_samples)
    task = config.task
    schedule = config.schedule()
    samples = [
        flowcore.sample_terminal_ode(
            arch, params, schedule, context, config.eval_samples,
            np.random.default_rng(np.random.SeedSequence((config.seed, STREAM_EVAL, step, context))), hs,
        )
        for context in range(task.context_count)
    ]
    del hs
    rewards = [envsuite.reward(task, x, context) for context, x in enumerate(samples)]
    qualities = [envsuite.quality(task, x) for x in samples]
    r = np.concatenate(rewards)
    q = np.concatenate(qualities)
    return {
        "mean_reward": float(r.mean()),
        "accuracy": float((r > config.accuracy_threshold).mean()),
        "quality_mean": float(q.mean()),
    }


@dataclass
class RunResult:
    metrics: list[MetricRecord]
    params: np.ndarray


def run(
    config: TrainConfig, pretrained: np.ndarray, on_metric=None, on_checkpoint=None, pretrained_eval=None
) -> RunResult:
    """S training steps from the pretrained parameters, with periodic
    deterministic evaluation; ``wallclock_ms`` counts from the start of RL.

    ``on_metric(record)`` fires for every evaluation record as it is produced
    (the caller can flush incrementally); ``on_checkpoint(step, params)``
    fires on the configured cadence. ``pretrained_eval``, when given, is
    ``evaluate``'s result for ``pretrained`` at step 0 under this config's
    evaluation fields, which the step-0 record then reads instead of
    evaluating again.
    """
    t0 = time.perf_counter()
    state = init_state(config, pretrained)
    records: list[MetricRecord] = []
    window: list[StepRecord] = []

    def emit(step: int) -> None:
        if step == 0 and pretrained_eval is not None:
            stats = pretrained_eval
        else:
            stats = evaluate(state.arch, state.theta, config, step)
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
            on_checkpoint(step_index, state.theta.copy())
    return RunResult(metrics=records, params=state.theta.copy())
