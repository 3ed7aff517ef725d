"""Independent oracles used to check the library's fast paths.

Everything here is written straight from definitions (loops, explicit sums,
finite differences). The Euler and rollout references evaluate the network
with ``reference_mlp_forward`` on hand-built features and take every step
from the formulas, so they share no sampler code with the library. The
per-group advantage and surrogate references at the end are the
group-by-group, timestep-by-timestep path the batched training step
replaced; the surrogate reference builds on the single-step layers
(``flowcore.step_distribution``, which gives one timestep's step means and
their shared variance, ``transition_logpdf``, ``kl_step`` and
``diffnet.grad``). The flow-matching references are a checked, allocating
form of the pretraining loop, and ``exact_velocity`` is the closed-form
field that loop should learn. ``load_trajectory_dump`` reads back a
``rollout.dump_trajectories`` file.
"""

import json
import math
from pathlib import Path

import numpy as np

from flowrl import diffnet, envsuite, flowcore, trainer


def central_difference(f, theta, h=1e-6):
    """Central finite-difference gradient of a scalar function of theta."""
    g = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        g[i] = (f(up) - f(down)) / (2.0 * h)
    return g


def max_rel_error(got, expected, floor=1e-8):
    """Element-wise relative error with a guarded denominator."""
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(np.max(np.abs(got - expected) / np.maximum(floor, np.abs(expected))))


def reference_mlp_forward(layer_dims, params, features):
    """Matrix-by-matrix tanh MLP evaluation from a flat parameter vector."""
    out = np.asarray(features, dtype=float)
    offset = 0
    n_layers = len(layer_dims) - 1
    for idx in range(n_layers):
        fan_in, fan_out = layer_dims[idx], layer_dims[idx + 1]
        w = np.asarray(params[offset:offset + fan_in * fan_out]).reshape(fan_out, fan_in)
        offset += fan_in * fan_out
        b = np.asarray(params[offset:offset + fan_out])
        offset += fan_out
        out = out @ w.T + b
        if idx < n_layers - 1:
            out = np.tanh(out)
    return out


def reference_features(arch, x, tau, context):
    """Rows [x, tau, sin 2 pi tau, cos 2 pi tau, one-hot context] at one time."""
    n = x.shape[0]
    time = np.tile([tau, np.sin(2.0 * np.pi * tau), np.cos(2.0 * np.pi * tau)], (n, 1))
    one_hot = np.zeros((n, arch.context_count))
    one_hot[:, context] = 1.0
    return np.hstack([x, time, one_hot])


def reference_velocity(arch, params, x, tau, context):
    """The network's velocity at rows x, one time and one context."""
    return reference_mlp_forward(arch.layer_dims, params, reference_features(arch, x, tau, context))


def reference_euler_states(arch, params, x, context, t_steps):
    """(n, T+1, D) Euler ODE path s_T .. s_0 of the rows of x:
    s <- s - (1/T) * v(s, t/T) for t = T .. 1."""
    states = [x]
    for t in range(t_steps, 0, -1):
        x = x - (1.0 / t_steps) * reference_velocity(arch, params, x, t / t_steps, context)
        states.append(x)
    return np.stack(states, axis=1)


def gaussian_product_logpdf(x, mean, var):
    """Log-density of an isotropic Gaussian as a product of 1-D densities."""
    total = 0.0
    for xi, mi in zip(np.asarray(x).ravel(), np.asarray(mean).ravel()):
        total += math.log(
            math.exp(-((xi - mi) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        )
    return total


def discounted_sum(rewards, gamma):
    """Direct summation of discounted cumulative values.

    ``rewards`` is one trajectory's sequence in generation order R_T .. R_1;
    entry for step t sums gamma^k * R_{t-k} over k = 0 .. t-1.
    """
    rewards = list(rewards)
    t_steps = len(rewards)
    out = np.empty(t_steps)
    for j in range(t_steps):
        t = t_steps - j  # step index counts down from T to 1
        total = 0.0
        for k in range(t):
            # R_{t-k} sits k positions later in generation order
            total += gamma ** k * rewards[j + k]
        out[j] = total
    return out


def wasserstein1_1d(a, b):
    """Empirical 1-Wasserstein distance between equally sized 1-D samples."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    assert a.shape == b.shape
    return float(np.mean(np.abs(a - b)))


def _population_normalize(values, eps_std):
    """(v - mean) / max(std, eps) of one group column; all zero below eps.

    The sums run member by member, in order.
    """
    values = np.asarray(values, dtype=float)
    m = sum(float(v) for v in values) / len(values)
    s = math.sqrt(sum((float(v) - m) ** 2 for v in values) / len(values))
    if s < eps_std:
        return np.zeros_like(values), m, s
    return (values - m) / max(s, eps_std), m, s


def group_normalize(q, eps_std):
    """(Q - mean) / std of every column of one group's (G, T) table, column
    by column; columns whose std falls below ``eps_std`` are all zero."""
    q = np.asarray(q, dtype=float)
    return np.stack([_population_normalize(q[:, j], eps_std)[0] for j in range(q.shape[1])], axis=1)


def reference_rollout_group(arch, params_old, context, group_size, schedule, task, seed,
                            shared_initial_noise=False):
    """One group of G trajectories, one timestep at a time over G rows.

    Each step is taken from the formulas: with tau' the time clamped half a
    step inside the grid and sigma^2 = a^2 tau' / (1 - tau'), the mean is
    x - [v + sigma^2 / (2 tau') * (x + (1 - tau') v)] / T, the variance
    sigma^2 / T, and the instant reward scores the projection x - tau v at
    the new state and time. The noise comes from one generator keyed by the
    slot's seed, member after member: each member's initial state, then its
    T step draws; with ``shared_initial_noise`` every member starts from
    member 0's initial state. Returns a dict of (G, ...) arrays: noises,
    states, logp_old, instant_rewards, terminal_rewards.
    """
    t_steps, d = schedule.num_steps, arch.state_dim
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    init = np.empty((group_size, d))
    noises = np.empty((group_size, t_steps, d))
    for i in range(group_size):
        init[i] = rng.standard_normal(d)
        noises[i] = rng.standard_normal((t_steps, d))
    if shared_initial_noise:
        init[1:] = init[0]
    states = np.empty((t_steps + 1, group_size, d))
    logps = np.empty((t_steps, group_size))
    rewards = np.empty((t_steps, group_size))
    states[0] = x = init
    half_step = 0.5 / t_steps
    for j, t in enumerate(range(t_steps, 0, -1)):
        tc = min(max(t / t_steps, half_step), 1.0 - half_step)
        s2 = schedule.a ** 2 * tc / (1.0 - tc)
        v = reference_velocity(arch, params_old, x, t / t_steps, context)
        mean = x - (v + s2 / (2.0 * tc) * (x + (1.0 - tc) * v)) / t_steps
        var = s2 / t_steps
        x = mean + math.sqrt(var) * noises[:, j]
        states[j + 1] = x
        logps[j] = [gaussian_product_logpdf(x[i], mean[i], var) for i in range(group_size)]
        tau_next = (t - 1) / t_steps
        projected = x - tau_next * reference_velocity(arch, params_old, x, tau_next, context)
        rewards[j] = envsuite.reward(task, projected, context)
    return {
        "noises": noises,
        "states": states.transpose(1, 0, 2),
        "logp_old": logps.T,
        "instant_rewards": rewards.T,
        "terminal_rewards": envsuite.reward(task, x, context),
    }


def grpo_advantages(terminal_rewards, t_steps, eps_std):
    """(G, T) GRPO advantages of one group: the group-normalized terminal
    rewards, the same in every timestep column."""
    r = np.asarray(terminal_rewards, dtype=float)
    return group_normalize(np.tile(r[:, None], (1, t_steps)), eps_std)


def reference_advantages(instant_rewards, terminal_rewards, config):
    """(G, T) advantages of one group, column by column."""
    g_size, t_steps = instant_rewards.shape
    if config.tcrm_enabled:
        q = np.asarray(instant_rewards, dtype=float).copy()
        for j in range(t_steps - 2, -1, -1):
            q[:, j] += config.gamma * q[:, j + 1]
        omega = np.ones_like(q)
        for i in range(g_size):
            mean_t = q[i].mean()
            if mean_t >= config.eps_mean:
                omega[i] = q[i] / mean_t
    else:
        q = np.tile(terminal_rewards[:, None], (1, t_steps))
        omega = np.ones_like(q)
    out = np.empty((g_size, t_steps))
    for j in range(t_steps):
        col = q[:, j]
        _, m, s = _population_normalize(col, config.eps_std)
        if s < config.eps_std:
            out[:, j] = omega[:, j] * (config.k * col)
        else:
            out[:, j] = omega[:, j] * (((1.0 + config.k * s) * col - m) / max(s, config.eps_std))
    return out


def reference_surrogate(arch, theta, theta_ref, states, logp_old, advantages, context,
                        schedule, eps_clip, beta_kl):
    """Clipped surrogate value and gradient of one group, one timestep at a time.

    ``states`` is (G, T+1, D); the gradient is that group's mean over its
    G * T rows, so a batch's gradient is the mean of these over its groups.
    """
    g_size, t_steps = advantages.shape
    n_rows = g_size * t_steps
    xs, taus, upstreams = [], [], []
    terms = np.empty((g_size, t_steps))
    kls = np.empty((g_size, t_steps))
    for j, t in enumerate(range(t_steps, 0, -1)):
        tau = t / t_steps
        x_t = np.ascontiguousarray(states[:, j])
        x_next = np.ascontiguousarray(states[:, j + 1])
        cur, var = flowcore.step_distribution(arch, theta, x_t, tau, schedule, context)
        ref, _ = flowcore.step_distribution(arch, theta_ref, x_t, tau, schedule, context)
        ratio = np.exp(flowcore.transition_logpdf(x_next, cur, var) - logp_old[:, j])
        a_col = advantages[:, j]
        unclipped = ratio * a_col
        clipped = np.clip(ratio, 1.0 - eps_clip, 1.0 + eps_clip) * a_col
        terms[:, j] = np.minimum(unclipped, clipped)
        kls[:, j] = flowcore.kl_step(cur, ref, var)
        kappa = np.where(unclipped <= clipped, unclipped, 0.0)
        dj_dmean = (
            kappa[:, None] * (x_next - cur) - beta_kl * (cur - ref)
        ) / (n_rows * var)
        xs.append(x_t)
        taus.append(np.full(g_size, tau))
        upstreams.append(flowcore.mean_velocity_coeff(tau, schedule) * dj_dmean)
    pgrad, _ = diffnet.grad(
        arch, theta, np.concatenate(xs), np.concatenate(taus), context, np.concatenate(upstreams)
    )
    return float(terms.mean() - beta_kl * kls.mean()), pgrad


def reference_interpolate(x0, x1, tau):
    """Linear path (1 - tau) * x0 + tau * x1; tau scalar or per-sample."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError(f"shape mismatch {x0.shape} vs {x1.shape}")
    tau = np.asarray(tau, dtype=np.float64)
    if np.any(tau < 0.0) or np.any(tau > 1.0):
        raise ValueError("tau outside [0, 1]")
    if x0.ndim == 2 and tau.ndim == 1:
        tau = tau[:, None]
    return (1.0 - tau) * x0 + tau * x1


def reference_fm_loss_and_grad(arch, params, x0, x1, tau, context):
    """Flow-matching loss mean_n ||(x1 - x0) - v(x_tau, tau)||^2 and its flat
    gradient, with every input checked and every array freshly built."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    if x0.shape[0] == 0:
        raise ValueError("empty batch")
    xt = reference_interpolate(x0, x1, tau)
    target = x1 - x0
    layers = diffnet.unpack(arch, params)
    phi = diffnet.features(arch, xt, tau, context)
    hs = diffnet.layer_buffers(layers, phi.shape[0])
    resid = target - diffnet.mlp(layers, phi, hs)
    loss = float((resid ** 2).sum(axis=1).mean())
    upstream = (-2.0 / x0.shape[0]) * resid
    pgrad = np.empty(diffnet.param_count(arch))
    diffnet.backward(layers, [phi, *hs[:-1]], upstream, diffnet.unpack(arch, pgrad))
    return loss, pgrad


def reference_adam_update(params, gradient, state, lr):
    """Out-of-place Adam: returns the new parameters and a new state, leaving
    the arguments untouched."""
    g = np.asarray(gradient, dtype=np.float64)
    t = state.t + 1
    m = diffnet.ADAM_BETA1 * state.m + (1.0 - diffnet.ADAM_BETA1) * g
    v = diffnet.ADAM_BETA2 * state.v + (1.0 - diffnet.ADAM_BETA2) * g * g
    m_hat = m / (1.0 - diffnet.ADAM_BETA1 ** t)
    v_hat = v / (1.0 - diffnet.ADAM_BETA2 ** t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + diffnet.ADAM_EPS)
    return new_params, diffnet.AdamState(m=m, v=v, t=t)


def reference_sample_data(task, rng, n):
    """n rows of the task's data mixture, the modes drawn by ``Generator.choice``."""
    centers, weights = task.centers(), task.weights()
    modes = rng.choice(len(centers), size=n, p=weights / weights.sum())
    return centers[modes] + math.sqrt(task.mode_var) * rng.standard_normal((n, task.state_dim))


def reference_pretrain(config):
    """Flow-matching pretraining one checked, allocating step at a time, with
    the draws of ``trainer.pretrain`` in the same order."""
    arch, task, batch_size = config.architecture(), config.task, config.pretrain_batch
    params = diffnet.init_params(arch, config.seed)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, trainer.STREAM_PRETRAIN)))
    state = diffnet.adam_init(params.size)
    for step in range(config.pretrain_steps):
        x0 = reference_sample_data(task, rng, batch_size)
        x1 = rng.standard_normal(x0.shape)
        tau = rng.uniform(0.0, 1.0, batch_size)
        ctx = rng.integers(0, task.context_count, batch_size)
        loss, g = reference_fm_loss_and_grad(arch, params, x0, x1, tau, ctx)
        if not np.isfinite(loss):
            raise RuntimeError(f"pretraining diverged at step {step}: loss={loss}")
        params, state = reference_adam_update(params, g, state, config.pretrain_lr)
    return params


def fm_kernel_loss_and_grad(arch, params, x0, x1, tau, context):
    """``flowcore.fm_loss_and_grad`` and ``fm_loss`` (the library kernel, not
    an oracle) on a feature matrix at x_tau, layer buffers and a flat gradient
    vector built for this one batch."""
    tau = np.broadcast_to(np.asarray(tau, dtype=float), (x0.shape[0],))
    xt = (1.0 - tau[:, None]) * x0 + tau[:, None] * x1
    phi = diffnet.feature_matrix(arch, xt, tau, context)
    layers = diffnet.unpack(arch, params)
    hs = diffnet.layer_buffers(layers, x0.shape[0])
    pgrad = np.empty(diffnet.param_count(arch))
    resid = flowcore.fm_loss_and_grad(layers, phi, hs, x1 - x0, diffnet.unpack(arch, pgrad))
    return flowcore.fm_loss(resid), pgrad


def exact_velocity(task, x, tau):
    """Closed-form rectified-flow velocity E[x1 - x0 | x_tau = x] of the
    task's equal-weight isotropic mixture, at the (n, d) rows x and tau
    (a scalar, or one per row).

    With x0 = c_m + s z from mode m and x1 ~ N(0, I), x_tau given m is
    N((1 - tau) c_m, sigma_t^2 I) with sigma_t^2 = (1 - tau)^2 s^2 + tau^2,
    and x1 - x0 has mean -c_m and per-coordinate covariance
    tau - (1 - tau) s^2 with x_tau. The field mixes the per-mode regressions
    by the modes' posterior weights at x.
    """
    x = np.asarray(x, dtype=float)
    tau = np.broadcast_to(np.asarray(tau, dtype=float), (x.shape[0],))[:, None, None]
    centers, s2 = task.centers()[None, :, :], task.mode_var
    var_t = (1.0 - tau) ** 2 * s2 + tau ** 2                # (n, 1, 1)
    diff = x[:, None, :] - (1.0 - tau) * centers            # (n, M, d)
    log_post = -(diff ** 2).sum(axis=2, keepdims=True) / (2.0 * var_t)
    post = np.exp(log_post - log_post.max(axis=1, keepdims=True))
    post /= post.sum(axis=1, keepdims=True)
    per_mode = -centers + (tau - (1.0 - tau) * s2) / var_t * diff
    return (post * per_mode).sum(axis=1)


def load_trajectory_dump(path):
    """The records of a ``rollout.dump_trajectories`` file, one dict per line."""
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
