import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowrl import envsuite

from _oracles import reference_sample_data


class TestTaskSpec:
    def test_weights_must_sum_to_one(self):
        # every task weights its modes equally, so the weights sum to one
        for task in (
            envsuite.TaskSpec(state_dim=1, num_modes=3, context_count=1),
            envsuite.TaskSpec("half-plane", state_dim=3),
            envsuite.TaskSpec("ring", num_modes=5),
            envsuite.TaskSpec(mode_centers=((0.0, 0.0),), context_count=1),
        ):
            weights = task.weights()
            assert np.all(weights == weights[0])
            assert abs(weights.sum() - 1.0) < 1e-12
            assert weights.shape == (len(task.centers()),)

    def test_context_count_bounded_by_modes(self):
        with pytest.raises(ValueError):
            envsuite.TaskSpec(num_modes=4, context_count=5)

    def test_ring_requires_radius(self):
        with pytest.raises(ValueError):
            envsuite.TaskSpec("ring", ring_radius=0.0, context_count=1)

    def test_explicit_centers_must_match_state_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            envsuite.TaskSpec(mode_centers=((0.0,), (1.0,)), context_count=1)

    def test_cached_arrays_are_read_only(self):
        task = envsuite.TaskSpec()
        with pytest.raises(ValueError):
            task.centers()[0, 0] = 1.0
        with pytest.raises(ValueError):
            task.weights()[0] = 1.0

    def test_default_task_layout(self):
        task = envsuite.TaskSpec()
        assert task.name == "mode-preference"
        assert len(task.centers()) == 8
        assert task.context_count == 8
        radii = np.linalg.norm(task.centers(), axis=1)
        assert np.allclose(radii, 3.0)


class TestSampleContext:
    def test_single_context_always_zero(self):
        task = envsuite.TaskSpec("half-plane", radius=1.5, mode_var=0.25, context_count=1)
        rng = np.random.default_rng(0)
        assert all(envsuite.sample_context(task, rng) == 0 for _ in range(20))

    def test_uniform_frequencies(self):
        task = envsuite.TaskSpec(num_modes=4, context_count=4)
        rng = np.random.default_rng(7)
        draws = np.array([envsuite.sample_context(task, rng) for _ in range(10000)])
        counts = np.bincount(draws, minlength=4)
        # binomial 3-sigma band around n*p
        sigma = math.sqrt(10000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 2500) < 3 * sigma)

    def test_deterministic_given_seed(self):
        task = envsuite.TaskSpec()
        a = [envsuite.sample_context(task, np.random.default_rng(3)) for _ in range(5)]
        b = [envsuite.sample_context(task, np.random.default_rng(3)) for _ in range(5)]
        assert a == b


def draw_data(task, rng, n):
    """``sample_data`` on the uniforms and normals of n rows, drawn in that order."""
    return envsuite.sample_data(task, rng.random(n), rng.standard_normal((n, task.state_dim)))


class TestSampleData:
    def test_degenerate_single_mode_concentrates(self):
        task = envsuite.TaskSpec(
            num_modes=1, context_count=1, mode_var=1e-8, mode_centers=[[3.0, 0.0]]
        )
        x = draw_data(task, np.random.default_rng(0), n=100)
        assert np.max(np.abs(x - np.array([3.0, 0.0]))) < 1e-3

    def test_two_mode_mean_near_zero(self):
        task = envsuite.TaskSpec(
            num_modes=2, radius=3.0, context_count=2, state_dim=1, mode_var=0.15
        )
        x = draw_data(task, np.random.default_rng(1), n=10000)
        # var per sample = mode_var + 9; 3-sigma bound on the sample mean
        bound = 3 * math.sqrt((0.15 + 9.0) / 10000)
        assert abs(float(x.mean())) < bound

    def test_deterministic_given_seed(self):
        task = envsuite.TaskSpec()
        a = draw_data(task, np.random.default_rng(5), n=32)
        b = draw_data(task, np.random.default_rng(5), n=32)
        assert np.array_equal(a, b)

    def test_single_draw_shape(self):
        task = envsuite.TaskSpec()
        x = draw_data(task, np.random.default_rng(2), n=1)
        assert x.shape == (1, 2)

    @pytest.mark.parametrize("task", [
        envsuite.TaskSpec(),
        envsuite.TaskSpec(name="half-plane", state_dim=1, context_count=1),
        envsuite.TaskSpec(num_modes=3, context_count=3, state_dim=1),
    ])
    def test_draws_are_generator_choices(self, task):
        for n in (1, 7, 128):
            rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
            got = draw_data(task, rng, n)
            assert got.tobytes() == reference_sample_data(task, ref_rng, n).tobytes()
            assert rng.random() == ref_rng.random()


class TestReward:
    def test_designated_center_scores_one(self):
        task = envsuite.TaskSpec()
        for ctx in range(task.context_count):
            x = task.centers()[ctx]
            assert envsuite.reward(task, x, ctx) == 1.0

    def test_non_designated_center_scores_exp_minus_s_d2(self):
        task = envsuite.TaskSpec(sharpness=1.3)
        centers = task.centers()
        x = centers[3]
        d2 = float(((x - centers[0]) ** 2).sum())
        got = envsuite.reward(task, x, 0)
        assert abs(got - math.exp(-1.3 * d2)) < 1e-15

    def test_half_plane_context_invariant(self, rng):
        task = envsuite.TaskSpec("half-plane", radius=1.5, mode_var=0.25, context_count=3)
        x = rng.standard_normal(2)
        values = {envsuite.reward(task, x, c) for c in range(3)}
        assert len(values) == 1

    def test_half_plane_logistic_value(self):
        task = envsuite.TaskSpec("half-plane", radius=1.5, mode_var=0.25, context_count=1, sharpness=2.0)
        x = np.array([0.4, 9.9])
        assert abs(envsuite.reward(task, x, 0) - 1.0 / (1.0 + math.exp(-0.8))) < 1e-15

    def test_half_plane_extreme_states_stay_bounded(self):
        task = envsuite.TaskSpec("half-plane", radius=1.5, mode_var=0.25, context_count=1)
        assert envsuite.reward(task, np.array([-1e6, 0.0]), 0) == 0.0
        assert envsuite.reward(task, np.array([1e6, 0.0]), 0) == 1.0

    def test_ring_peak_on_circle(self):
        task = envsuite.TaskSpec("ring", ring_radius=2.0, mode_var=0.1, context_count=1)
        on_ring = np.array([2.0, 0.0])
        off_ring = np.array([3.0, 0.0])
        assert envsuite.reward(task, on_ring, 0) == 1.0
        assert abs(envsuite.reward(task, off_ring, 0) - math.exp(-1.0)) < 1e-15

    def test_non_finite_state_rejected(self):
        task = envsuite.TaskSpec()
        with pytest.raises(ValueError):
            envsuite.reward(task, np.array([np.nan, 0.0]), 0)


class TestQuality:
    def test_two_mode_closed_form(self):
        task = envsuite.TaskSpec(
            num_modes=2, radius=1.5, context_count=2, state_dim=1, mode_var=0.09
        )
        x = np.array([1.5])
        var = 0.09
        peak = math.exp(0.0) / math.sqrt(2 * math.pi * var)
        other = math.exp(-(3.0 ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        want = math.log(0.5 * peak + 0.5 * other)
        assert abs(envsuite.quality(task, x) - want) < 1e-12

    def test_bounded_by_density_peak(self, rng):
        task = envsuite.TaskSpec()
        peak = max(envsuite.quality(task, np.array(c)) for c in task.centers())
        xs = 4.0 * rng.standard_normal((200, 2))
        assert np.all(envsuite.quality(task, xs) <= peak + 1e-9)

    def test_symmetric_mixture_even_function(self):
        task = envsuite.TaskSpec(
            num_modes=2, radius=1.5, context_count=2, state_dim=1
        )
        for v in (0.3, 1.5, -2.2):
            assert envsuite.quality(task, np.array([v])) == envsuite.quality(task, np.array([-v]))

    def test_independent_of_context(self):
        # quality has no context argument at all; the oracle cannot be gamed
        # by conditioning
        task = envsuite.TaskSpec()
        x = np.array([1.0, 1.0])
        assert isinstance(envsuite.quality(task, x), float)


@given(
    x=st.lists(st.floats(-50, 50), min_size=2, max_size=2),
    ctx=st.integers(0, 7),
    name=st.sampled_from(["mode-preference", "half-plane", "ring"]),
)
def test_rewards_always_in_unit_interval(x, ctx, name):
    if name == "mode-preference":
        task = envsuite.TaskSpec()
    elif name == "half-plane":
        task = envsuite.TaskSpec("half-plane", radius=1.5, mode_var=0.25, context_count=8)
    else:
        task = envsuite.TaskSpec("ring", mode_var=0.1, context_count=8)
    r = envsuite.reward(task, np.array(x), ctx)
    assert 0.0 <= r <= 1.0
