"""Independent oracles used to check the library's fast paths.

Everything here is written straight from definitions (loops, explicit sums,
finite differences). The Euler and rollout references evaluate the network
with ``reference_mlp_forward`` on hand-built features and take every step
from the formulas, so they share no sampler code with the library. The
per-group advantage and surrogate references at the end are the
group-by-group, timestep-by-timestep path the batched training step
replaced; the surrogate reference builds on the single-step layers
(``flowcore.step_distribution``, ``transition_logpdf``, ``kl_step`` and
``diffnet.grad``).
"""

import math

import numpy as np

from flowrl import diffnet, envsuite, flowcore


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
    the new state and time. Returns a dict of (G, ...) arrays: noises,
    states, logp_old, instant_rewards, terminal_rewards.
    """
    t_steps, d = schedule.num_steps, arch.state_dim
    children = np.random.SeedSequence(seed).spawn(group_size + 1)
    rngs = [np.random.default_rng(c) for c in children[:group_size]]
    if shared_initial_noise:
        shared = np.random.default_rng(children[group_size]).standard_normal(d)
        init = np.tile(shared, (group_size, 1))
    else:
        init = np.stack([r.standard_normal(d) for r in rngs])
    noises = np.stack([r.standard_normal((t_steps, d)) for r in rngs])
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
    dtau = schedule.dtau
    n_rows = g_size * t_steps
    xs, taus, upstreams = [], [], []
    terms = np.empty((g_size, t_steps))
    kls = np.empty((g_size, t_steps))
    for j, t in enumerate(range(t_steps, 0, -1)):
        tau = t / t_steps
        x_t = np.ascontiguousarray(states[:, j])
        x_next = np.ascontiguousarray(states[:, j + 1])
        cur = flowcore.step_distribution(arch, theta, x_t, tau, dtau, schedule, context)
        ref = flowcore.step_distribution(arch, theta_ref, x_t, tau, dtau, schedule, context)
        ratio = np.exp(flowcore.transition_logpdf(x_next, cur) - logp_old[:, j])
        a_col = advantages[:, j]
        unclipped = ratio * a_col
        clipped = np.clip(ratio, 1.0 - eps_clip, 1.0 + eps_clip) * a_col
        terms[:, j] = np.minimum(unclipped, clipped)
        kls[:, j] = flowcore.kl_step(cur, ref)
        kappa = np.where(unclipped <= clipped, unclipped, 0.0)
        dj_dmean = (
            kappa[:, None] * (x_next - cur.mean) - beta_kl * (cur.mean - ref.mean)
        ) / (n_rows * cur.var)
        xs.append(x_t)
        taus.append(np.full(g_size, tau))
        upstreams.append(flowcore.mean_velocity_coeff(tau, dtau, schedule) * dj_dmean)
    pgrad, _ = diffnet.grad(
        arch, theta, np.concatenate(xs), np.concatenate(taus), context, np.concatenate(upstreams)
    )
    return float(terms.mean() - beta_kl * kls.mean()), pgrad
