import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowrl import diffnet

from _oracles import central_difference, max_rel_error, reference_mlp_forward

# architectures the gradient/count checks sweep over (all <= 200 params
# so finite differences stay cheap)
ARCH_MATRIX = [
    diffnet.Architecture(input_dim=5, hidden_dims=(), output_dim=1),
    diffnet.Architecture(input_dim=6, hidden_dims=(4,), output_dim=2),
    diffnet.Architecture(input_dim=7, hidden_dims=(8,), output_dim=2),
    diffnet.Architecture(input_dim=6, hidden_dims=(5, 4), output_dim=2),
]


def random_inputs(arch, rng, n=3):
    x = rng.standard_normal((n, arch.state_dim))
    tau = rng.uniform(0.0, 1.0, n)
    ctx = rng.integers(0, max(arch.context_count, 1), n) if arch.context_count else np.zeros(n, int)
    return x, tau, ctx


class TestArchitecture:
    def test_param_count_matches_layer_shapes(self):
        for arch in ARCH_MATRIX:
            total = 0
            dims = arch.layer_dims
            for fan_in, fan_out in zip(dims[:-1], dims[1:]):
                total += fan_in * fan_out + fan_out
            assert diffnet.param_count(arch) == total
            assert diffnet.init_params(arch, 0).shape == (total,)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            diffnet.Architecture(input_dim=0, hidden_dims=(4,), output_dim=1)
        with pytest.raises(ValueError):
            diffnet.Architecture(input_dim=5, hidden_dims=(0,), output_dim=1)
        with pytest.raises(ValueError):
            diffnet.Architecture(input_dim=5, hidden_dims=(4,), output_dim=2, activation="relu")

    def test_for_task_feature_layout(self):
        arch = diffnet.for_task(2, 8)
        assert arch.input_dim == 2 + 3 + 8
        assert arch.state_dim == 2
        assert arch.context_count == 8


class TestInitParams:
    def test_deterministic_given_seed(self):
        arch = ARCH_MATRIX[2]
        a = diffnet.init_params(arch, seed=7)
        b = diffnet.init_params(arch, seed=7)
        assert np.array_equal(a, b)

    def test_biases_exactly_zero(self):
        arch = ARCH_MATRIX[3]
        params = diffnet.init_params(arch, seed=7)
        for _, b in diffnet.unpack(arch, params):
            assert np.all(b == 0.0)

    def test_different_seeds_differ(self):
        arch = ARCH_MATRIX[2]
        a = diffnet.init_params(arch, seed=7)
        b = diffnet.init_params(arch, seed=8)
        assert np.any(a != b)

    def test_weight_bound(self):
        arch = ARCH_MATRIX[1]
        params = diffnet.init_params(arch, seed=0)
        for w, _ in diffnet.unpack(arch, params):
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(w.shape[1]))


class TestForward:
    def test_zero_params_give_zero_output(self, rng):
        for arch in ARCH_MATRIX:
            params = np.zeros(diffnet.param_count(arch))
            x, tau, ctx = random_inputs(arch, rng)
            assert np.all(diffnet.forward(arch, params, x, tau, ctx) == 0.0)

    def test_single_linear_layer_identity_on_state(self):
        # one linear layer; identity weights on the state block, zero weights
        # on the time/context feature columns
        arch = diffnet.Architecture(input_dim=7, hidden_dims=(), output_dim=2)
        w = np.zeros((2, 7))
        w[0, 0] = 1.0
        w[1, 1] = 1.0
        params = np.concatenate([w.ravel(), np.zeros(2)])
        x = np.array([0.37, -1.2])
        for tau in (0.0, 0.25, 1.0):
            out = diffnet.forward(arch, params, x, tau, 1)
            assert np.array_equal(out, x)

    def test_matches_reference_reimplementation(self, rng):
        for arch in ARCH_MATRIX:
            params = rng.standard_normal(diffnet.param_count(arch))
            x, tau, ctx = random_inputs(arch, rng, n=5)
            got = diffnet.forward(arch, params, x, tau, ctx)
            phi = diffnet.features(arch, x, tau, ctx)
            want = reference_mlp_forward(arch.layer_dims, params, phi)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_pure_function_bit_identical(self, rng):
        arch = ARCH_MATRIX[2]
        params = rng.standard_normal(diffnet.param_count(arch))
        x, tau, ctx = random_inputs(arch, rng)
        a = diffnet.forward(arch, params, x, tau, ctx)
        b = diffnet.forward(arch, params, x, tau, ctx)
        assert np.array_equal(a, b)

    def test_rejects_non_finite_input(self):
        arch = ARCH_MATRIX[2]
        params = np.zeros(diffnet.param_count(arch))
        with pytest.raises(ValueError):
            diffnet.forward(arch, params, np.array([np.nan, 0.0]), 0.5, 0)
        with pytest.raises(ValueError):
            diffnet.forward(arch, params, np.array([np.inf, 0.0]), 0.5, 0)

    def test_rejects_tau_outside_unit_interval(self):
        arch = ARCH_MATRIX[2]
        params = np.zeros(diffnet.param_count(arch))
        with pytest.raises(ValueError):
            diffnet.forward(arch, params, np.zeros(2), 1.5, 0)


class TestGrad:
    def test_zero_upstream_gives_zero_gradients(self, rng):
        arch = ARCH_MATRIX[2]
        params = rng.standard_normal(diffnet.param_count(arch))
        x, tau, ctx = random_inputs(arch, rng)
        pg, ig = diffnet.grad(arch, params, x, tau, ctx, np.zeros((3, 2)))
        assert np.all(pg == 0.0)
        assert np.all(ig == 0.0)

    def test_matches_finite_differences_across_matrix(self, rng):
        for arch in ARCH_MATRIX:
            params = 0.5 * rng.standard_normal(diffnet.param_count(arch))
            x, tau, ctx = random_inputs(arch, rng)
            upstream = rng.standard_normal((3, arch.output_dim))
            got, _ = diffnet.grad(arch, params, x, tau, ctx, upstream)

            def scalar(theta):
                out = diffnet.forward(arch, theta, x, tau, ctx)
                return float((np.atleast_2d(out) * upstream).sum())

            fd = central_difference(scalar, params)
            assert max_rel_error(got, fd) < 1e-5

    def test_input_gradient_matches_finite_differences(self, rng):
        arch = ARCH_MATRIX[2]
        params = 0.5 * rng.standard_normal(diffnet.param_count(arch))
        x = rng.standard_normal(arch.state_dim)
        upstream = rng.standard_normal(arch.output_dim)
        _, ig = diffnet.grad(arch, params, x, 0.3, 1, upstream)
        for i in range(arch.state_dim):
            def scalar(xi, i=i):
                xs = x.copy()
                xs[i] = xi
                return float(diffnet.forward(arch, params, xs, 0.3, 1) @ upstream)
            h = 1e-6
            fd = (scalar(x[i] + h) - scalar(x[i] - h)) / (2 * h)
            assert abs(ig[i] - fd) / max(1e-8, abs(fd)) < 1e-5

    def test_batch_gradient_is_sum_of_per_sample_gradients(self, rng):
        arch = ARCH_MATRIX[1]
        params = rng.standard_normal(diffnet.param_count(arch))
        x, tau, ctx = random_inputs(arch, rng, n=4)
        upstream = rng.standard_normal((4, arch.output_dim))
        batch, _ = diffnet.grad(arch, params, x, tau, ctx, upstream)
        per_sample = sum(
            diffnet.grad(arch, params, x[i], tau[i], ctx[i], upstream[i])[0] for i in range(4)
        )
        assert np.max(np.abs(batch - per_sample)) < 1e-12

    def test_shape_mismatch_rejected(self, rng):
        arch = ARCH_MATRIX[2]
        params = np.zeros(diffnet.param_count(arch))
        x, tau, ctx = random_inputs(arch, rng)
        with pytest.raises(ValueError):
            diffnet.grad(arch, params, x, tau, ctx, np.zeros((3, arch.output_dim + 1)))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = np.array([1.0, -2.0, 3.0])
        state = diffnet.adam_init(3)
        new, state2 = diffnet.adam_update(params, np.zeros(3), state, lr=0.1)
        assert np.array_equal(new, params)
        assert state2.t == 1

    def test_moments_decay_under_zero_gradient(self):
        state = diffnet.adam_init(2)
        state.m[:] = 1.0
        state.v[:] = 1.0
        _, state2 = diffnet.adam_update(np.zeros(2), np.zeros(2), state, lr=0.1)
        assert np.all(state2.m < state.m)
        assert np.all(state2.v < state.v)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        # closed-form moment limit: m_hat -> g, v_hat -> g^2, step -> lr
        lr = 1e-3
        params = np.array([0.0])
        state = diffnet.adam_init(1)
        g = np.array([0.37])
        for _ in range(2000):
            prev = params.copy()
            params, state = diffnet.adam_update(params, g, state, lr=lr)
        step = abs(float(params[0] - prev[0]))
        assert abs(step - lr) < 1e-6 * lr + 1e-10

    def test_deterministic_trajectories(self, rng):
        g = rng.standard_normal((10, 4))

        def run():
            params = np.zeros(4)
            state = diffnet.adam_init(4)
            out = []
            for i in range(10):
                params, state = diffnet.adam_update(params, g[i], state, lr=0.01)
                out.append(params.copy())
            return np.stack(out)

        assert np.array_equal(run(), run())


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path, rng):
        arch = ARCH_MATRIX[3]
        params = rng.standard_normal(diffnet.param_count(arch))
        path = tmp_path / "ckpt.json"
        diffnet.save_checkpoint(path, arch, params)
        arch2, params2 = diffnet.load_checkpoint(path)
        assert arch2 == arch
        assert np.array_equal(params2, params)

    def test_rejects_corrupted_header(self, tmp_path):
        arch = ARCH_MATRIX[1]
        good = tmp_path / "good.json"
        diffnet.save_checkpoint(good, arch, np.zeros(diffnet.param_count(arch)))
        valid = json.loads(good.read_text())
        contents = [
            {"format": "something-else", "values": []},
            [valid],
            {key: value for key, value in valid.items() if key != "architecture"},
            {key: value for key, value in valid.items() if key != "values"},
            dict(valid, architecture=[arch.input_dim]),
            dict(valid, version=2),
        ]
        path = tmp_path / "bad.json"
        for content in contents:
            path.write_text(json.dumps(content))
            with pytest.raises(ValueError):
                diffnet.load_checkpoint(path)


@given(
    state_dim=st.integers(1, 3),
    context_count=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 6), max_size=2),
    seed=st.integers(0, 2**16),
)
def test_param_count_formula_property(state_dim, context_count, hidden, seed):
    arch = diffnet.for_task(state_dim, context_count, tuple(hidden))
    params = diffnet.init_params(arch, seed)
    layers = diffnet.unpack(arch, params)
    assert sum(w.size + b.size for w, b in layers) == params.size == diffnet.param_count(arch)


@given(
    state_dim=st.integers(1, 3),
    context_count=st.integers(0, 4),
    hidden=st.lists(st.integers(1, 6), max_size=2),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_mlp_on_features_matches_forward_property(state_dim, context_count, hidden, n, seed):
    """The unchecked core on checked features is ``forward`` bit for bit, with
    and without kept activations, and a feature buffer rewritten in place
    equals freshly built features."""
    arch = diffnet.for_task(state_dim, context_count, tuple(hidden))
    rng = np.random.default_rng(seed)
    params = rng.standard_normal(diffnet.param_count(arch))
    x = rng.standard_normal((n, state_dim))
    tau = rng.uniform(0.0, 1.0, n)
    ctx = rng.integers(0, max(context_count, 1), n)
    phi = diffnet.features(arch, x, tau, ctx)
    layers = diffnet.unpack(arch, params)
    want = diffnet.forward(arch, params, x, tau, ctx)
    assert np.array_equal(diffnet.mlp(layers, phi), want)
    got, activations = diffnet.mlp(layers, phi, keep_activations=True)
    assert np.array_equal(got, want)
    assert len(activations) == len(layers) and activations[0] is phi
    buffer = diffnet.feature_matrix(arch, rng.standard_normal((n, state_dim)), 1.0, ctx)
    diffnet.write_state_time(arch, buffer, x, tau)
    assert np.array_equal(buffer, phi)
