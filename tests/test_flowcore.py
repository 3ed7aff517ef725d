import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowrl import diffnet, envsuite, flowcore, rollout, trainer

from _oracles import (
    central_difference,
    exact_velocity,
    fm_kernel_loss_and_grad,
    gaussian_product_logpdf,
    max_rel_error,
    mc_value,
    reference_euler_states,
    reference_fm_loss_and_grad,
    reference_interpolate,
    wasserstein1_1d,
)


def constant_field_params(arch, value):
    """Single-layer net with zero weights whose bias fixes the output."""
    assert arch.hidden_dims == ()
    w = np.zeros((arch.output_dim, arch.input_dim))
    return np.concatenate([w.ravel(), np.asarray(value, dtype=float)])


CONST_ARCH = diffnet.Architecture(input_dim=6, hidden_dims=(), output_dim=2)
CONST_ARCH_1D = diffnet.Architecture(input_dim=5, hidden_dims=(), output_dim=1)


class TestInterpolate:
    def test_endpoints(self, rng):
        x0 = rng.standard_normal(3)
        x1 = rng.standard_normal(3)
        assert np.array_equal(reference_interpolate(x0, x1, 0.0), x0)
        assert np.array_equal(reference_interpolate(x0, x1, 1.0), x1)

    def test_quarter_point(self):
        # (1 - 0.25) * 0 + 0.25 * 2 = 0.5
        assert reference_interpolate(np.array([0.0]), np.array([2.0]), 0.25) == np.array([0.5])

    def test_tau_outside_rejected(self):
        with pytest.raises(ValueError):
            reference_interpolate(np.zeros(2), np.ones(2), 1.1)
        with pytest.raises(ValueError):
            reference_interpolate(np.zeros(2), np.ones(2), -0.1)

    def test_batch_with_per_sample_tau(self, rng):
        x0 = rng.standard_normal((4, 2))
        x1 = rng.standard_normal((4, 2))
        tau = np.array([0.0, 0.5, 1.0, 0.25])
        out = reference_interpolate(x0, x1, tau)
        for i in range(4):
            assert np.allclose(out[i], (1 - tau[i]) * x0[i] + tau[i] * x1[i])


class TestSigma:
    def test_zero_noise_level(self):
        sched = flowcore.NoiseSchedule(a=0.0, num_steps=10)
        for tau in (0.0, 0.3, 1.0):
            assert flowcore.sigma(tau, sched) == 0.0

    def test_midpoint_value(self):
        # sqrt(0.5 / 0.5) = 1
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        assert abs(flowcore.sigma(0.5, sched) - 0.7) < 1e-15

    def test_clamping_keeps_endpoints_finite(self):
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        hi = flowcore.sigma(1.0, sched)
        assert math.isfinite(hi)
        assert hi == pytest.approx(0.7 * math.sqrt(0.95 / 0.05), rel=1e-12)
        assert math.isfinite(flowcore.sigma(0.0, sched))

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            flowcore.NoiseSchedule(a=-0.1, num_steps=10)
        with pytest.raises(ValueError):
            flowcore.NoiseSchedule(a=0.5, num_steps=1)


class TestSdeStep:
    def test_hand_evaluated_drift(self):
        # 1-D, v = 0, x = 1, t = 5 of 10 (tau' = 0.5), a = 0.7, dtau = 0.1, noise = 0:
        # sigma^2 = 0.49, mean = 1 - (0.49 / 1.0) * 1 * 0.1 = 0.951
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        x_next = flowcore.sde_update(np.array([1.0]), np.array([0.0]), 5, sched, np.array([0.0]))
        params = constant_field_params(CONST_ARCH_1D, [0.0])
        _, mean, _ = flowcore.sde_step(CONST_ARCH_1D, params, np.array([1.0]), 0.5, sched, np.array([0.0]), 0)
        var = sched.table[2, 10 - 5]
        assert abs(mean[0] - 0.951) < 1e-12
        assert np.array_equal(x_next, mean)
        assert abs(var - 0.49 * 0.1) < 1e-12

    def test_hand_evaluated_diffusion(self):
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        x_next = flowcore.sde_update(np.array([1.0]), np.array([0.0]), 5, sched, np.array([1.0]))
        assert abs(x_next[0] - (0.951 + 0.7 * math.sqrt(0.1))) < 1e-12

    def test_zero_noise_reduces_to_euler_ode(self, rng):
        # for any velocity, the a = 0 step is the Euler step x - dtau * v
        sched = flowcore.NoiseSchedule(a=0.0, num_steps=10)
        x = rng.standard_normal((5, 2))
        for t in range(10, 0, -1):
            v = rng.standard_normal((5, 2))
            x_next = flowcore.sde_update(x, v, t, sched, rng.standard_normal((5, 2)))
            assert np.array_equal(x_next, x - 0.1 * v)
            assert sched.table[2, 10 - t] == 0.0
            x = x_next

    def test_noise_shape_mismatch_rejected(self, rng):
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        params = constant_field_params(CONST_ARCH_1D, [0.0])
        with pytest.raises(ValueError):
            flowcore.sde_step(CONST_ARCH_1D, params, np.array([1.0]), 0.5, sched, np.zeros(2), 0)


class TestOdeProject:
    def test_zero_tau_is_identity(self, rng):
        arch = diffnet.for_task(2, 2, hidden_dims=(6,))
        params = rng.standard_normal(diffnet.param_count(arch))
        s = rng.standard_normal(2)
        assert np.array_equal(flowcore.ode_project(arch, params, s, 0.0, 0), s)

    def test_constant_field_analytic(self):
        params = constant_field_params(CONST_ARCH, [0.8, -0.4])
        s = np.array([1.0, 2.0])
        got = flowcore.ode_project(CONST_ARCH, params, s, 0.5, 0)
        assert np.allclose(got, s - 0.5 * np.array([0.8, -0.4]), atol=1e-15)

    def test_trained_gaussian_model_projects_to_data_mean(self):
        # closed-form rectified flow for Gaussian endpoints: at tau = 1 the
        # optimal field satisfies s - v(s, 1) = data mean for every s
        center = 1.2
        task = envsuite.TaskSpec(
            num_modes=1, radius=0.0, mode_var=0.25, context_count=1, state_dim=1,
            mode_centers=[[center]],
        )
        config = trainer.TrainConfig(task=task, pretrain_steps=2000, seed=5, pretrain_batch=128)
        arch = config.architecture()
        assert arch == diffnet.for_task(1, 1)
        params = trainer.pretrain(config)
        rng = np.random.default_rng(0)
        starts = rng.standard_normal((64, 1))
        projected = flowcore.ode_project(arch, params, starts, 1.0, 0)
        assert abs(float(projected.mean()) - center) < 0.1


def time_major_steps(rng, d, t_steps=7, n=5):
    """Two (T, n, d) state arrays and a (T, 1) variance column, one value per step."""
    var = flowcore.NoiseSchedule(a=0.7, num_steps=t_steps).table[2][:, None]
    return rng.standard_normal((t_steps, n, d)), rng.standard_normal((t_steps, n, d)), var


class TestTransitionLogpdf:
    def test_mode_value(self):
        got = flowcore.transition_logpdf(np.zeros((1, 2)), np.zeros((1, 2)), 1.0)
        assert abs(got[0] + math.log(2 * math.pi)) < 1e-15

    def test_symmetry_about_mean(self, rng):
        mean = rng.standard_normal((1, 3))
        delta = rng.standard_normal((1, 3))
        a = flowcore.transition_logpdf(mean + delta, mean, 0.37)
        b = flowcore.transition_logpdf(mean - delta, mean, 0.37)
        assert abs(a[0] - b[0]) < 1e-12

    def test_matches_product_of_1d_gaussians(self, rng):
        for _ in range(5):
            mean = rng.standard_normal((1, 4))
            x = rng.standard_normal((1, 4))
            var = float(rng.uniform(0.05, 2.0))
            got = flowcore.transition_logpdf(x, mean, var)
            want = gaussian_product_logpdf(x, mean, var)
            assert abs(got[0] - want) < 1e-12

    def test_schedule_without_a_positive_step_variance_rejected(self):
        # the densities divide by the table's variances unchecked, so a noise
        # level whose variance underflows to 0, overflows, or is not finite,
        # fails here
        for a in (1e-170, 1e200, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise level"):
                flowcore.NoiseSchedule(a=a, num_steps=10)
        # the first step's variance at a = 1e150 is 1.9e300, finite: accepted
        assert np.isfinite(flowcore.NoiseSchedule(a=1e150, num_steps=10).table).all()
        # around the underflow, a schedule is accepted exactly when every
        # variance of its table is positive
        for steps in (2, 10, 37):
            accepted = 0
            for a in np.geomspace(1e-165, 1e-158, 200):
                try:
                    sched = flowcore.NoiseSchedule(a=float(a), num_steps=steps)
                except ValueError:
                    continue
                accepted += 1
                assert sched.table[2].all()
            assert 0 < accepted < 200

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_time_major_call_equals_flat_rows(self, rng, d):
        x, mean, var = time_major_steps(rng, d)
        got = flowcore.transition_logpdf(x, mean, var)
        want = flowcore.transition_logpdf(x.reshape(-1, d), mean.reshape(-1, d), np.repeat(var, x.shape[1]))
        assert got.shape == x.shape[:2]
        assert np.array_equal(got.ravel(), want)


class TestKlStep:
    def test_identical_means_zero(self):
        mean = np.ones((1, 2))
        assert flowcore.kl_step(mean, mean, 0.5)[0] == 0.0

    def test_unit_displacement_value(self):
        # ||(1, 0)||^2 / (2 * 0.5) = 1
        p = np.array([[1.0, 0.0]])
        q = np.array([[0.0, 0.0]])
        assert abs(flowcore.kl_step(p, q, 0.5)[0] - 1.0) < 1e-15

    def test_symmetric_under_mean_swap(self, rng):
        p = rng.standard_normal((1, 3))
        q = rng.standard_normal((1, 3))
        assert flowcore.kl_step(p, q, 0.3)[0] == flowcore.kl_step(q, p, 0.3)[0]

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_time_major_call_equals_flat_rows(self, rng, d):
        p, q, var = time_major_steps(rng, d)
        got = flowcore.kl_step(p, q, var)
        want = flowcore.kl_step(p.reshape(-1, d), q.reshape(-1, d), np.repeat(var, p.shape[1]))
        assert got.shape == p.shape[:2]
        assert np.array_equal(got.ravel(), want)


class TestFmLoss:
    def test_perfect_prediction_zero_loss(self):
        # constant-output net matching a batch whose pairs share one difference
        diff = np.array([0.3, -0.7])
        params = constant_field_params(CONST_ARCH, diff)
        x0 = np.array([[0.0, 0.0], [1.0, -1.0]])
        x1 = x0 + diff
        loss, _ = fm_kernel_loss_and_grad(CONST_ARCH, params, x0, x1, np.array([0.2, 0.8]), 0)
        assert loss < 1e-28

    def test_zero_net_single_sample_unit_loss(self):
        # ||(1, 0)||^2 = 1
        params = np.zeros(diffnet.param_count(CONST_ARCH))
        loss, _ = fm_kernel_loss_and_grad(
            CONST_ARCH, params, np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), 0.5, 0
        )
        assert abs(loss - 1.0) < 1e-15

    def test_gradient_matches_finite_differences(self, rng):
        arch = diffnet.Architecture(input_dim=7, hidden_dims=(6,), output_dim=2)
        params = 0.5 * rng.standard_normal(diffnet.param_count(arch))
        x0 = rng.standard_normal((4, 2))
        x1 = rng.standard_normal((4, 2))
        tau = rng.uniform(0, 1, 4)
        ctx = rng.integers(0, 2, 4)
        _, got = fm_kernel_loss_and_grad(arch, params, x0, x1, tau, ctx)
        fd = central_difference(
            lambda t: fm_kernel_loss_and_grad(arch, t, x0, x1, tau, ctx)[0], params
        )
        assert max_rel_error(got, fd) < 1e-5

    def test_non_finite_x0_rejected(self):
        params = np.zeros(diffnet.param_count(CONST_ARCH))
        x0 = np.array([[0.0, np.nan], [1.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            reference_fm_loss_and_grad(CONST_ARCH, params, x0, np.zeros((2, 2)), 0.5, 0)

    @pytest.mark.parametrize("tau", [-0.1, 1.1, [0.5, 1.5]])
    def test_tau_outside_unit_interval_rejected(self, tau):
        params = np.zeros(diffnet.param_count(CONST_ARCH))
        with pytest.raises(ValueError, match="tau outside"):
            reference_fm_loss_and_grad(CONST_ARCH, params, np.zeros((2, 2)), np.ones((2, 2)), tau, 0)

    def test_empty_batch_rejected(self):
        params = np.zeros(diffnet.param_count(CONST_ARCH))
        with pytest.raises(ValueError):
            reference_fm_loss_and_grad(CONST_ARCH, params, np.empty((0, 2)), np.empty((0, 2)), [], [])


@given(seed=st.integers(0, 2**16), steps=st.integers(2, 6))
def test_ode_reduction_property(seed, steps):
    """a = 0 makes rollout trajectories bit-identical to the Euler integrator."""
    rng = np.random.default_rng(seed)
    arch = diffnet.for_task(2, 2, hidden_dims=(5,))
    params = rng.standard_normal(diffnet.param_count(arch))
    sched = flowcore.NoiseSchedule(a=0.0, num_steps=steps)
    context = int(rng.integers(0, 2))
    states = rollout.rollout_group(arch, params, [context], 2, sched, seeds=[seed]).states[0]
    assert np.array_equal(states, reference_euler_states(arch, params, states[:, 0], context, steps))


def float32_oracle_sample(arch, params, context, n, steps, seed):
    """The last state of the unfolded float32 Euler oracle, from the
    generator's first (n, D) standard-normal draw rounded to float32."""
    x0 = np.random.default_rng(seed).standard_normal((n, arch.state_dim)).astype(np.float32)
    sched = flowcore.NoiseSchedule(a=0.7, num_steps=steps)
    return reference_euler_states(arch, params.astype(np.float32), x0, context, steps)[:, -1], sched


@pytest.mark.parametrize("n", [3, 1024])
@pytest.mark.parametrize("steps", [2, 10])
@pytest.mark.parametrize("context", [0, 2])
def test_ode_sampler_is_the_euler_oracle(n, steps, context):
    """Evaluation samples repeat exactly, do not depend on the other contexts
    of the request, and stay within float32 rounding of the unfolded float32
    Euler oracle: the folded first layer adds its terms in another order.
    The largest distance measured over these cases is 4.8e-7."""
    arch = diffnet.for_task(2, 3)
    params = diffnet.init_params(arch, 11)
    want, sched = float32_oracle_sample(arch, params, context, n, steps, 8)
    got, = flowcore.sample_terminal_ode(arch, params, sched, [context], n, [np.random.default_rng(8)])
    again, = flowcore.sample_terminal_ode(arch, params, sched, [context], n, [np.random.default_rng(8)])
    others = [1, context, 2 - context]
    rngs = [np.random.default_rng(c + 20) for c in others]
    rngs[1] = np.random.default_rng(8)
    within = flowcore.sample_terminal_ode(arch, params, sched, others, n, rngs)[1]
    assert got.dtype == np.float64 and want.dtype == np.float32
    assert np.array_equal(got, again)
    assert np.array_equal(got, within)
    assert np.max(np.abs(got - want)) < 1e-5


def test_ode_sampler_without_hidden_layers_on_a_1d_task():
    # the first layer is the output layer: the folded block gives the velocity
    # itself, with no tanh; the largest distance measured here is 9.5e-7
    arch = diffnet.for_task(1, 1, hidden_dims=())
    params = 3.0 * diffnet.init_params(arch, 2) + np.random.default_rng(2).standard_normal(diffnet.param_count(arch))
    want, sched = float32_oracle_sample(arch, params, 0, 256, 10, 3)
    got, = flowcore.sample_terminal_ode(arch, params, sched, [0], 256, [np.random.default_rng(3)])
    assert got.shape == (256, 1)
    assert np.max(np.abs(got - want)) < 1e-5


@pytest.mark.parametrize("seed", [11, 12])
def test_ode_sampler_stays_near_the_float64_oracle(seed):
    # float32 rounds each operation to a relative 6e-8: on states of order 3,
    # ten Euler steps of a few roundings each stay inside 1e-5
    arch = diffnet.for_task(2, 3)
    params = diffnet.init_params(arch, seed)
    sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
    contexts = [0, 1, 2]
    got = flowcore.sample_terminal_ode(
        arch, params, sched, contexts, 512, [np.random.default_rng((seed, c)) for c in contexts]
    )
    for context, sample in zip(contexts, got):
        x0 = np.random.default_rng((seed, context)).standard_normal((512, arch.state_dim))
        want = reference_euler_states(arch, params, x0, context, 10)[:, -1]
        assert np.max(np.abs(sample - want)) < 1e-5


def test_ode_sampler_rejects_parameters_beyond_float32():
    arch = diffnet.for_task(2, 3)
    params = diffnet.init_params(arch, 11)
    params[5] = 1e39  # finite in float64, inf in float32
    sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
    with pytest.raises(ValueError, match="float32"):
        flowcore.sample_terminal_ode(arch, params, sched, [0], 4, [np.random.default_rng(0)])


class TestMarginalPreservation:
    @pytest.mark.parametrize("noise_level", [0.1, 0.3, 0.7])
    def test_sde_matches_ode_marginals(self, two_mode_1d, noise_level):
        _, arch, params = two_mode_1d
        sched = flowcore.NoiseSchedule(a=noise_level, num_steps=10)
        ode, = flowcore.sample_terminal_ode(arch, params, sched, [0], 10000, [np.random.default_rng(1)])
        seeds = [(2, i) for i in range(1250)]
        sde = rollout.rollout_group(arch, params, [0] * 1250, 8, sched, seeds).states[:, :, -1]
        assert wasserstein1_1d(ode, sde) < 0.1

    def test_logpdf_of_sampled_states_finite(self, two_mode_1d):
        _, arch, params = two_mode_1d
        sched = flowcore.NoiseSchedule(a=0.7, num_steps=10)
        batch = rollout.rollout_group(arch, params, [0, 1], 16, sched, seeds=[0, 1])
        logps = trainer.step_logps(batch, trainer.step_means(batch, batch.hs[-1]))
        assert logps.shape == (2, 16, 10)
        assert np.all(np.isfinite(logps))


class TestExactVelocity:
    """The closed-form field of the 1-D two-mode task of the ``two_mode_1d``
    fixture: a network-free check of the sampler and the target of pretraining."""

    TASK = envsuite.TaskSpec(num_modes=2, radius=1.5, mode_var=0.09, context_count=2, state_dim=1)

    @pytest.mark.parametrize("noise_level", [0.1, 0.7])
    def test_sde_on_the_exact_field_reaches_the_data(self, noise_level):
        sched = flowcore.NoiseSchedule(a=noise_level, num_steps=50)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20000, 1))
        for t in range(sched.num_steps, 0, -1):
            tau = t / sched.num_steps
            noise = rng.standard_normal(x.shape)
            x = flowcore.sde_update(x, exact_velocity(self.TASK, x, tau), t, sched, noise)
        data_rng = np.random.default_rng(4)
        data = envsuite.sample_data(self.TASK, data_rng.random(20000), data_rng.standard_normal((20000, 1)))
        # measured 0.016 (a = 0.1) and 0.018 (a = 0.7); a drift correction
        # s^2 / tau in place of s^2 / (2 tau) gives 0.074 at a = 0.7
        assert wasserstein1_1d(x, data) < 0.05

    def test_pretrained_field_is_close_to_the_exact_field(self, two_mode_1d):
        task, arch, params = two_mode_1d
        assert task == self.TASK
        rng = np.random.default_rng(99)  # held out: pretraining draws from (seed, STREAM_PRETRAIN)
        x0 = envsuite.sample_data(task, rng.random(2000), rng.standard_normal((2000, task.state_dim)))
        x1 = rng.standard_normal(x0.shape)
        tau = rng.uniform(0.0, 1.0, 2000)
        ctx = rng.integers(0, task.context_count, 2000)
        xt = (1.0 - tau[:, None]) * x0 + tau[:, None] * x1
        err = diffnet.forward(arch, params, xt, tau, ctx) - exact_velocity(task, xt, tau)
        # measured 0.0217; the untrained network is at 1.31
        assert float((err ** 2).sum(axis=1).mean()) < 0.05

    @pytest.mark.parametrize(
        "task",
        [TASK, envsuite.TaskSpec()],
        ids=["1d-two-mode", "2d-eight-mode"],
    )
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_one_step_projection_is_the_posterior_mean_of_the_data(self, task, tau):
        """On the exact field the projection x - tau * v* is E[x0 | x_tau]:
        sum_m w_m (mu_m + ((1 - tau) s^2 / c) d_m), with c = (1 - tau)^2 s^2
        + tau^2, d_m = x - (1 - tau) mu_m and w_m proportional to
        exp(-|d_m|^2 / 2c), summed here row by row and mode by mode."""
        x = 2.0 * np.random.default_rng(5).standard_normal((40, task.state_dim))
        got = flowcore.euler_update(x, exact_velocity(task, x, tau), tau)
        s2, centers = task.mode_var, task.centers()
        c = (1.0 - tau) ** 2 * s2 + tau ** 2
        want = np.zeros_like(x)
        for i, row in enumerate(x):
            d = [row - (1.0 - tau) * mu for mu in centers]
            logw = [-float(dm @ dm) / (2.0 * c) for dm in d]
            w = [math.exp(lw - max(logw)) for lw in logw]
            for wm, mu, dm in zip(w, centers, d):
                want[i] += wm / sum(w) * (mu + ((1.0 - tau) * s2 / c) * dm)
        assert np.max(np.abs(got - want)) < 1e-12


class TestDenseRewardFidelity:
    """Claim (i), network-free: on the exact field, the projected reward
    R(s_t - tau v) that TCRM assigns to step t tracks the Monte-Carlo value
    V(s_t) = E[R(s_0) | s_t] of the policy's own SDE, the better the nearer
    tau is to 0. Default task and schedule, context 0; 400 rollouts, each V
    from 128 continuations. Measured (tau: corr, mean(R_proj - V)):
    0.9: 0.631, -0.095; 0.7: 0.865, -0.045; 0.5: 0.985, -0.007;
    0.2: 0.9998, +0.003. A projection one grid step early or late reads
    corr 0.98 at tau = 0.2; a flipped sign of the drift's noise correction
    reads corr 0.78 at tau = 0.5."""

    def test_projected_reward_tracks_the_monte_carlo_value(self):
        task, sched, context = envsuite.TaskSpec(), flowcore.NoiseSchedule(a=0.7, num_steps=10), 0
        T = sched.num_steps

        def field(x, tau):
            return exact_velocity(task, x, tau)

        rng = np.random.default_rng(0)
        x, states = rng.standard_normal((400, task.state_dim)), {}
        for t in range(T, 0, -1):
            x = flowcore.sde_update(x, field(x, t / T), t, sched, rng.standard_normal(x.shape))
            states[t - 1] = x
        mc_rng = np.random.default_rng(1)
        corr, bias = {}, {}
        for t in (9, 7, 5, 2):
            s, tau = states[t], t / T
            r_proj = envsuite.reward(task, flowcore.euler_update(s, field(s, tau), tau), context)
            value = mc_value(task, field, s, t, sched, 128, mc_rng, context)
            corr[tau], bias[tau] = np.corrcoef(r_proj, value)[0, 1], float((r_proj - value).mean())
        print("\n  tau  corr(R_proj, V)  mean(R_proj - V)")
        for tau in corr:
            print(f"  {tau:.1f}  {corr[tau]:15.4f}  {bias[tau]:+16.4f}")
        assert corr[0.5] >= 0.95 and corr[0.2] >= 0.99
        assert abs(bias[0.9]) > abs(bias[0.7]) > max(abs(bias[0.5]), abs(bias[0.2]))
        assert abs(bias[0.2]) < 0.01
