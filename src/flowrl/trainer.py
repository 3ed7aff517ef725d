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
        # one schedule per config, so its step table is worked out once per run,
        # and one architecture, so its layer widths are checked before a run starts
        object.__setattr__(self, "_schedule", NoiseSchedule(a=self.noise_level, num_steps=self.sampling_steps))
        arch = diffnet.for_task(self.task.state_dim, self.task.context_count, self.hidden_dims)
        object.__setattr__(self, "_arch", arch)

    def architecture(self) -> Architecture:
        return self._arch

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
    nonfinite_contexts: tuple[int, ...] = ()  # contexts of trajectories with a non-finite gradient term


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
    surrogate's old log-densities are stored in the batch), the fixed
    reference parameters of the KL penalty, and ``buffers``, the run's
    training-step arrays, which ``rollout.RolloutBuffers`` describes."""

    config: TrainConfig
    arch: Architecture
    theta: np.ndarray
    theta_ref: np.ndarray
    adam: AdamState
    buffers: rollout.RolloutBuffers


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
    into arrays set up once like the gradient vector and the layer buffers of
    the network and of ``diffnet.backward``.
    Each step then runs only the network and its gradient, the loss check
    and Adam: a non-finite loss stops pretraining at the step that produced
    it, before that step's update.
    """
    arch, task, n = config.architecture(), config.task, config.pretrain_batch
    params = diffnet.init_params(arch, config.seed)
    layers = diffnet.unpack(arch, params)
    grad = np.empty_like(params)
    grads = diffnet.unpack(arch, grad)
    hs, deltas = diffnet.layer_buffers(layers, n), diffnet.layer_buffers(layers, n)
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
        diffnet.write_state_time(
            arch, rows, ((1.0 - tau) * x0 + tau * x1).reshape(k * n, d), diffnet.time_features(taus[:k].ravel())
        )
        diffnet.write_context(arch, rows, contexts[:k].ravel())
        for i in range(k):
            resid = flowcore.fm_loss_and_grad(layers, phi[i], hs, targets[i], grads, deltas)
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
    return np.minimum(ratio * advantages, np.clip(ratio, 1.0 - eps_clip, 1.0 + eps_clip) * advantages)


def reference_means(arch: Architecture, theta_ref: np.ndarray, batch: RolloutBatch, hs=None) -> np.ndarray:
    """The reference policy's (B, G, T, d) step means at the batch's states,
    from its one ``diffnet.mlp`` pass over ``batch.phi``. The pass writes
    into ``hs``, one (B * G * T, fan_out) array per layer, the caller's or
    made here; ``rollout.RolloutBuffers`` says how long the caller's live."""
    layers = diffnet.unpack(arch, theta_ref)
    phi = batch.phi.reshape(-1, arch.input_dim)
    v_ref = diffnet.mlp(layers, phi, diffnet.layer_buffers(layers, phi.shape[0]) if hs is None else hs)
    x, sched = batch.states[:, :, :-1], batch.schedule
    tc, s2 = sched.table[:2, :, None]
    return flowcore.step_mean(x, v_ref.reshape(x.shape), tc, s2, sched.dtau)


def surrogate_loss_and_grad(
    arch: Architecture, theta: np.ndarray, batch: RolloutBatch, advantages, ref_mean: np.ndarray,
    eps_clip: float, beta_kl: float, hs=None, deltas=None,
) -> SurrogateResult:
    """Clipped surrogate objective over a rollout batch and its exact gradient.

    Ratios are exp(logp_theta - logp_old) where logp_theta comes from the
    current policy's step means at the stored states; the (B, G, T)
    ``advantages`` and the stored old log-densities are constants. The KL
    penalty compares the current step means with ``ref_mean``, the
    ``reference_means`` of the batch, under the batch's schedule, whose
    table's (T, 1) columns broadcast over the slots and group members.
    Gradients flow only through the current policy's means. Value and
    gradient are means over all B * G * T transitions, i.e. the mean over
    groups of the per-group objective. A deterministic (a = 0) batch, which
    has no transition densities, and advantages or reference means not
    shaped like the batch's transitions are rejected.

    ``hs``, when the caller has them, are the layer outputs of theta's
    ``diffnet.mlp`` pass over ``batch.phi``, one (B * G * T, fan_out) array
    per layer, and ``deltas`` arrays of the same shapes; without them the
    pass and ``diffnet.backward`` run into arrays made here. ``backward``
    writes its deltas into ``deltas`` and its tanh derivatives over ``hs``,
    so the call spends the pass (``rollout.RolloutBuffers`` gives the order
    in a training step). Non-finite gradient terms are found by one
    whole-array test; only then are their slots' contexts named.
    """
    if batch.logp_old is None:
        raise ValueError("policy optimization requires stochastic rollouts (a > 0)")
    if np.shape(advantages) != batch.logp_old.shape:
        raise ValueError(f"advantage shape {np.shape(advantages)} != {batch.logp_old.shape}")
    x, x_next, sched = batch.states[:, :, :-1], batch.states[:, :, 1:], batch.schedule
    if np.shape(ref_mean) != x.shape:
        raise ValueError(f"reference mean shape {np.shape(ref_mean)} != {x.shape}")
    tc, s2, var, _, coeff = sched.table[:, :, None]
    n_rows = batch.logp_old.size
    layers = diffnet.unpack(arch, theta)
    phi = batch.phi.reshape(-1, arch.input_dim)
    if hs is None:
        hs = diffnet.layer_buffers(layers, n_rows)
        diffnet.mlp(layers, phi, hs)
    deltas = diffnet.layer_buffers(layers, n_rows) if deltas is None else deltas
    mean = flowcore.step_mean(x, hs[-1].reshape(x.shape), tc, s2, sched.dtau)
    ratio = np.exp(flowcore.transition_logpdf(x_next, mean, var[:, 0]) - batch.logp_old)
    unclipped = ratio * advantages
    surrogate_terms = clipped_term(ratio, advantages, eps_clip)
    kl_terms = flowcore.kl_step(mean, ref_mean, var[:, 0])
    # d(objective)/d(mean): the unclipped branch contributes A*r*dlogp/dmean,
    # the saturated clip branch contributes nothing; a NaN term stays NaN
    kappa = np.where(surrogate_terms < unclipped, 0.0, unclipped)
    dj_dmean = (kappa[..., None] * (x_next - mean) - beta_kl * (mean - ref_mean)) / (n_rows * var)
    upstream = coeff * dj_dmean
    pgrad = np.empty_like(theta)
    diffnet.backward(
        layers, [phi, *hs[:-1]], upstream.reshape(n_rows, -1), diffnet.unpack(arch, pgrad), deltas, hs
    )
    nonfinite_contexts = ()
    if not np.isfinite(upstream).all():
        bad = ~np.isfinite(upstream).all(axis=(1, 2, 3))
        nonfinite_contexts = tuple(np.unique(batch.contexts[bad]).tolist())
    return SurrogateResult(
        value=float(surrogate_terms.mean() - beta_kl * kl_terms.mean()),
        grad=pgrad,
        kl=float(kl_terms.mean()),
        mean_ratio=float(ratio.mean()),
        clip_fraction=float((ratio < 1.0 - eps_clip).mean() + (ratio > 1.0 + eps_clip).mean()),
        nonfinite_contexts=nonfinite_contexts,
    )


def init_state(config: TrainConfig, pretrained: np.ndarray) -> TrainState:
    """RL state starting from the pretrained parameters, which are also the
    reference policy. Both are copies, so the caller's array never changes.
    The state's training-step arrays are made here, once per run."""
    theta = np.array(pretrained, dtype=np.float64)
    arch = config.architecture()
    b, g, t = config.batch_contexts, config.group_size, config.sampling_steps
    return TrainState(
        config=config,
        arch=arch,
        theta=theta,
        theta_ref=theta.copy(),
        adam=diffnet.adam_init(theta.size),
        buffers=rollout.make_buffers(arch, b, g, t),
    )


def rollout_batch(state: TrainState, step_index: int) -> RolloutBatch:
    """Sample the step's context batch and one rollout group per context,
    into the state's buffers: the batch lives until the state's next call."""
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
        buffers=state.buffers,
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

    Precondition: the batch has the state's shape and was sampled at the
    state's current theta, as ``rollout_batch`` does; its ``logp_old``
    already assumes this. The first epoch therefore reads the batch's network
    pass instead of running it again; each later epoch runs its own into
    the arrays ``rollout.RolloutBuffers`` names.
    """
    cfg, arch = state.config, state.arch
    theta_before = state.theta.copy()
    deltas = [h.reshape(-1, h.shape[-1]) for h in state.buffers.hs]
    ref_mean = reference_means(arch, state.theta_ref, batch, deltas)
    hs = [h.reshape(-1, h.shape[-1]) for h in batch.hs]
    values, kls = [], []
    for epoch in range(cfg.inner_epochs):
        if epoch:
            diffnet.mlp(diffnet.unpack(arch, state.theta), batch.phi.reshape(-1, arch.input_dim), hs)
        res = surrogate_loss_and_grad(
            arch, state.theta, batch, advantages, ref_mean, cfg.eps_clip, cfg.beta_kl, hs, deltas
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

    One ``flowcore.sample_terminal_ode`` call samples every context, so the
    network's layer buffers are allocated once per evaluation, and one
    ``envsuite.reward`` call, given each row's context, and one
    ``envsuite.quality`` call score the samples of all the contexts."""
    task, n = config.task, config.eval_samples
    contexts = range(task.context_count)
    rngs = (np.random.default_rng(np.random.SeedSequence((config.seed, STREAM_EVAL, step, c))) for c in contexts)
    samples = flowcore.sample_terminal_ode(arch, params, config.schedule(), contexts, n, rngs)
    x = samples.reshape(-1, task.state_dim)
    r = envsuite.reward(task, x, np.repeat(contexts, n))
    q = envsuite.quality(task, x)
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
