import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowrl import diffnet

from _oracles import central_difference, max_rel_error, reference_adam_update, reference_mlp_forward

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
    ctx = rng.integers(0, arch.context_count, n)
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

    def test_input_narrower_than_state_and_time_rejected(self):
        # 4 columns hold a 2-D state but not its 3 time features
        with pytest.raises(ValueError, match="input_dim too small for state"):
            diffnet.Architecture(input_dim=4, hidden_dims=(4,), output_dim=2)

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

    @pytest.mark.parametrize("hidden", [(), (5,), (6, 9, 4)])
    def test_backward_into_buffers_is_the_allocating_pass_bit_for_bit(self, rng, hidden):
        # deltas written into the caller's buffers and tanh derivatives over
        # the spent pass, against the expressions delta @ W * (1 - h ** 2)
        # allocated afresh at every layer
        arch = diffnet.for_task(2, 3, hidden)
        n = 7
        params = rng.standard_normal(diffnet.param_count(arch))
        layers = diffnet.unpack(arch, params)
        x, tau, ctx = random_inputs(arch, rng, n=n)
        phi = diffnet.features(arch, x, tau, ctx)
        hs = diffnet.layer_buffers(layers, n)
        diffnet.mlp(layers, phi, hs)
        activations = [phi.copy(), *(h.copy() for h in hs[:-1])]
        upstream = rng.standard_normal((n, arch.output_dim))
        want, delta = [], upstream
        for idx in range(len(layers) - 1, -1, -1):
            want[:0] = [(delta.T @ activations[idx]).ravel(), delta.sum(axis=0)]
            if idx:
                delta = (delta @ layers[idx][0]) * (1.0 - activations[idx] ** 2)
        want = np.concatenate(want)
        deltas = diffnet.layer_buffers(layers, n)
        got = np.empty_like(params)
        first = diffnet.backward(layers, phi, hs, upstream, diffnet.unpack(arch, got), deltas)
        assert np.array_equal(got, want)
        assert np.array_equal(first, delta)
        assert first is (deltas[0] if hidden else upstream)
        assert np.array_equal(phi, activations[0])
        for spent, h in zip(hs[:-1], activations[1:], strict=True):
            assert np.array_equal(spent, 1.0 - h * h)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = np.array([1.0, -2.0, 3.0])
        before = params.copy()
        state = diffnet.adam_init(3)
        diffnet.adam_update(params, np.zeros(3), state, lr=0.1)
        assert np.array_equal(params, before)
        assert state.t == 1

    def test_moments_decay_under_zero_gradient(self):
        state = diffnet.adam_init(2)
        state.m[:] = 1.0
        state.v[:] = 1.0
        m_before, v_before = state.m.copy(), state.v.copy()
        diffnet.adam_update(np.zeros(2), np.zeros(2), state, lr=0.1)
        assert np.all(state.m < m_before)
        assert np.all(state.v < v_before)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        # closed-form moment limit: m_hat -> g, v_hat -> g^2, step -> lr
        lr = 1e-3
        params = np.array([0.0])
        state = diffnet.adam_init(1)
        g = np.array([0.37])
        for _ in range(2000):
            prev = params.copy()
            diffnet.adam_update(params, g, state, lr=lr)
        step = abs(float(params[0] - prev[0]))
        assert abs(step - lr) < 1e-6 * lr + 1e-10

    def test_deterministic_trajectories(self, rng):
        g = rng.standard_normal((10, 4))

        def run():
            params = np.zeros(4)
            state = diffnet.adam_init(4)
            out = []
            for i in range(10):
                diffnet.adam_update(params, g[i], state, lr=0.01)
                out.append(params.copy())
            return np.stack(out)

        assert np.array_equal(run(), run())

    def test_in_place_update_matches_the_out_of_place_formulas_bitwise(self, rng, small_arch):
        params = diffnet.init_params(small_arch, 0)
        layers = diffnet.unpack(small_arch, params)
        state = diffnet.adam_init(params.size)
        ref_params, ref_state = params.copy(), diffnet.adam_init(params.size)
        for _ in range(50):
            g = rng.standard_normal(params.size) * rng.uniform(1e-6, 10.0)
            diffnet.adam_update(params, g, state, lr=1e-2)
            ref_params, ref_state = reference_adam_update(ref_params, g, ref_state, lr=1e-2)
        assert params.tobytes() == ref_params.tobytes()
        assert state.m.tobytes() == ref_state.m.tobytes() and state.v.tobytes() == ref_state.v.tobytes()
        assert state.t == ref_state.t == 50
        # the layer views taken before the updates see the updated values
        assert np.array_equal(np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers]), params)


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
            dict(valid, architecture=dict(valid["architecture"], activation="relu")),
            dict(valid, version=2),
        ]
        path = tmp_path / "bad.json"
        for content in contents:
            path.write_text(json.dumps(content))
            with pytest.raises(ValueError):
                diffnet.load_checkpoint(path)

    @pytest.mark.parametrize("values", [
        pytest.param(lambda v: v[:-1], id="one-short"),
        pytest.param(lambda v: v + [0.0], id="one-over"),
    ])
    def test_rejects_a_value_count_other_than_its_header(self, tmp_path, values):
        arch = ARCH_MATRIX[1]
        path = tmp_path / "ckpt.json"
        good = json.loads(diffnet.checkpoint_text(arch, np.zeros(diffnet.param_count(arch))))
        path.write_text(json.dumps(dict(good, values=values(good["values"]))))
        with pytest.raises(ValueError, match="value count does not match its architecture header"):
            diffnet.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, tmp_path, bad):
        # json writes and reads them as NaN, Infinity and -Infinity
        arch = ARCH_MATRIX[1]
        params = np.zeros(diffnet.param_count(arch))
        params[3] = bad
        path = tmp_path / "ckpt.json"
        diffnet.save_checkpoint(path, arch, params)
        with pytest.raises(ValueError, match="non-finite values"):
            diffnet.load_checkpoint(path)

    @pytest.mark.parametrize("head", [
        pytest.param({"input_dim": 3}, id="input-narrower-than-state-and-time"),
        pytest.param({"input_dim": 5}, id="no-context-column"),
        pytest.param({"output_dim": 0}, id="no-output"),
        pytest.param({"hidden_dims": [4, 0]}, id="zero-width-layer"),
    ])
    def test_a_header_the_architecture_rejects_is_a_malformed_checkpoint(self, tmp_path, head):
        arch = ARCH_MATRIX[1]
        path = tmp_path / "ckpt.json"
        good = json.loads(diffnet.checkpoint_text(arch, np.zeros(diffnet.param_count(arch))))
        path.write_text(json.dumps(dict(good, architecture=dict(good["architecture"], **head))))
        with pytest.raises(ValueError, match=f"^malformed checkpoint {re.escape(str(path))}: "):
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
    context_count=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 6), max_size=2),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_mlp_on_features_matches_forward_property(state_dim, context_count, hidden, n, seed):
    """The unchecked core on checked features is ``forward`` bit for bit and
    writes into the caller's layer buffers, a second call on the same buffers
    returns the same array with the new values, and a feature buffer
    rewritten in place equals freshly built features."""
    arch = diffnet.for_task(state_dim, context_count, tuple(hidden))
    rng = np.random.default_rng(seed)
    params = rng.standard_normal(diffnet.param_count(arch))
    x = rng.standard_normal((n, state_dim))
    tau = rng.uniform(0.0, 1.0, n)
    ctx = rng.integers(0, context_count, n)
    phi = diffnet.features(arch, x, tau, ctx)
    layers = diffnet.unpack(arch, params)
    want = diffnet.forward(arch, params, x, tau, ctx)
    hs = diffnet.layer_buffers(layers, n)
    got = diffnet.mlp(layers, phi, hs)
    assert np.array_equal(got, want)
    assert got is hs[-1]
    assert len(hs) == len(layers)
    x2 = rng.standard_normal((n, state_dim))
    phi2 = diffnet.features(arch, x2, tau, ctx)
    again = diffnet.mlp(layers, phi2, hs)
    assert again is got
    assert np.array_equal(again, diffnet.forward(arch, params, x2, tau, ctx))
    buffer = diffnet.features(arch, rng.standard_normal((n, state_dim)), 1.0, ctx)
    diffnet.write_state_time(arch, buffer, x, diffnet.time_features(tau))
    assert np.array_equal(buffer, phi)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 7, 1024])
def test_bias_rows_are_the_broadcast_biases_bit_for_bit(dtype, n):
    """Layers whose biases are repeated as (n, fan_out) rows, as the
    evaluation sampler passes them, give ``mlp`` the same outputs and
    activations as ``unpack``'s (fan_out,) biases."""
    arch = diffnet.for_task(2, 8)
    rng = np.random.default_rng(n)
    # init_params' biases are zeros: draw some, so that the adds are real
    layers = [
        (w, rng.standard_normal(b.shape).astype(dtype))
        for w, b in diffnet.unpack(arch, (3.0 * diffnet.init_params(arch, 4)).astype(dtype))
    ]
    rows = [(w, np.tile(b, (n, 1))) for w, b in layers]
    x, tau, context = rng.standard_normal((n, 2)), rng.uniform(0.0, 1.0, n), rng.integers(0, 8, n)
    phi = diffnet.features(arch, x, tau, context).astype(dtype)
    want = diffnet.layer_buffers(layers, n)
    got = diffnet.layer_buffers(rows, n)
    diffnet.mlp(layers, phi, want)
    diffnet.mlp(rows, phi, got)
    assert all(h.dtype == dtype and np.array_equal(h, g) for h, g in zip(want, got))
