import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowrl import advantage as adv

from _oracles import discounted_sum, grpo_advantages, group_normalize


def group_relative(q):
    """Group normalization as the flow-grpo preset runs it: the adaptive dual
    estimator with k = 0 and unit weights."""
    return adv.adae(q, 0.0, np.ones_like(q))


def terminal_table(terminal_rewards, num_steps):
    """The sparse-reward baseline: group-normalized terminal rewards, one
    column per timestep."""
    r = np.asarray(terminal_rewards, dtype=np.float64)
    return group_relative(np.tile(r[:, None], (1, num_steps)))


class TestCumulativeValues:
    def test_zero_gamma_copies_rewards(self, rng):
        r = rng.uniform(0, 1, (4, 6))
        assert np.array_equal(adv.cumulative_values(r, 0.0), r)

    def test_hand_worked_sequence(self):
        # R_3, R_2, R_1 = 0.5, 0.2, 1.0 with gamma 0.5:
        # Q_1 = 1.0, Q_2 = 0.2 + 0.5, Q_3 = 0.5 + 0.35
        q = adv.cumulative_values(np.array([0.5, 0.2, 1.0]), 0.5)
        assert np.allclose(q, [0.85, 0.7, 1.0], atol=1e-15)

    def test_geometric_series_closed_form(self):
        t_steps = 10
        q = adv.cumulative_values(np.ones(t_steps), 0.9)
        for j in range(t_steps):
            t = t_steps - j
            assert abs(q[j] - (1 - 0.9 ** t) / 0.1) < 1e-12

    def test_matches_direct_summation_oracle(self, rng):
        for _ in range(50):
            t_steps = int(rng.integers(1, 12))
            gamma = float(rng.uniform(0, 0.999))
            r = rng.uniform(0, 1, t_steps)
            got = adv.cumulative_values(r, gamma)
            assert np.max(np.abs(got - discounted_sum(r, gamma))) < 1e-12

    def test_bounded_when_rewards_in_unit_interval(self, rng):
        gamma = 0.9
        r = rng.uniform(0, 1, (8, 10))
        q = adv.cumulative_values(r, gamma)
        assert np.array_equal(q[:, -1], r[:, -1])  # Q_1 = R_1
        for j in range(10):
            t = 10 - j
            assert np.all(q[:, j] >= 0.0)
            assert np.all(q[:, j] <= (1 - gamma ** t) / (1 - gamma) + 1e-12)


def test_suite_fails_on_the_warnings_of_unchecked_inputs():
    # the formulas do not check their inputs (TrainConfig does), so the
    # suite turns numpy's RuntimeWarning into an error: an eps_std of 0
    # divides 0 by 0 on a constant column
    q = np.full((4, 3), 0.8)
    with pytest.raises(RuntimeWarning):
        adv.adae(q, 0.5, np.ones_like(q), eps_std=0.0)


class TestValueWeights:
    def test_constant_values_give_unit_weights(self):
        q = np.full((3, 5), 0.7)
        assert np.array_equal(adv.value_weights(q), np.ones((3, 5)))

    def test_hand_worked_weights(self):
        # mean = 4/3; 2/(4/3) = 1.5, 1/(4/3) = 0.75
        w = adv.value_weights(np.array([2.0, 1.0, 1.0]))
        assert np.allclose(w, [1.5, 0.75, 0.75], atol=1e-15)

    def test_zero_values_trigger_guard(self):
        w = adv.value_weights(np.zeros((2, 4)))
        assert np.array_equal(w, np.ones((2, 4)))

    def test_per_trajectory_mean_is_one_when_guard_inactive(self, rng):
        q = rng.uniform(0.1, 1.0, (6, 10))
        w = adv.value_weights(q)
        assert np.allclose(w.mean(axis=-1), 1.0, atol=1e-12)
        assert np.all(w >= 0.0)


class TestGrpoTerminalAdvantage:
    def test_hand_worked_normalization(self):
        # mean 1, population std sqrt(2/3)
        table = terminal_table(np.array([0.0, 1.0, 2.0]), num_steps=4)
        expected = 1.0 / math.sqrt(2.0 / 3.0)
        assert table.shape == (3, 4)
        for j in range(4):
            assert abs(table[0, j] + expected) < 1e-4
            assert abs(table[1, j]) < 1e-12
            assert abs(table[2, j] - expected) < 1e-4

    def test_identical_rewards_give_exact_zeros(self):
        table = terminal_table(np.full(5, 0.8), num_steps=3)
        assert np.all(table == 0.0)

    def test_columns_standardized(self, rng):
        r = rng.uniform(0, 1, 8)
        table = terminal_table(r, num_steps=10)
        for j in range(10):
            col = table[:, j]
            assert abs(col.mean()) < 1e-10
            assert abs(col.std() - 1.0) < 1e-10


class TestGroupRelative:
    def test_two_member_column(self):
        # population std of (0, 1) is 0.5
        got = group_relative(np.array([[0.0], [1.0]]))
        assert np.allclose(got, [[-1.0], [1.0]], atol=1e-12)

    def test_constant_column_zeroed(self):
        got = group_relative(np.full((4, 3), 2.5))
        assert np.all(got == 0.0)

    def test_translation_invariance(self, rng):
        q = rng.uniform(0, 1, (6, 5))
        shifted = q + 7.25
        assert np.allclose(group_relative(q), group_relative(shifted), atol=1e-9)


class TestAdae:
    def test_decomposition_identity(self, rng):
        # adae / omega = group normalization + k * Q whenever the std guard is idle
        q = rng.uniform(0, 1, (8, 10))
        omega = rng.uniform(0.5, 1.5, (8, 10))
        k = 0.5
        table = adv.adae(q, k, omega)
        rebuilt = omega * (group_normalize(q, adv.DEFAULT_EPS_STD) + k * q)
        assert np.max(np.abs(table - rebuilt)) < 1e-10

    def test_constant_column_limit(self):
        q = np.full((4, 3), 0.8)
        table = adv.adae(q, 0.5, np.ones_like(q))
        assert np.allclose(table, 0.4, atol=1e-15)

    def test_k_zero_reduces_to_group_relative(self, rng):
        q = rng.uniform(0, 1, (6, 7))
        table = adv.adae(q, 0.0, np.ones_like(q))
        assert np.array_equal(table, group_normalize(q, adv.DEFAULT_EPS_STD))

    def test_stagnation_contrast(self):
        # identical positive values: the sparse estimator is silent, the dual
        # estimator still pushes proportionally to the value
        q = np.full((8, 10), 0.8)
        omega = adv.value_weights(q)
        grpo = terminal_table(q[:, 0], num_steps=10)
        dual = adv.adae(q, 0.5, omega)
        assert np.all(grpo == 0.0)
        assert np.all(dual == 0.5 * 0.8)

    def test_scale_behavior(self, rng):
        # doubling is exact in floating point: the relative part is scale
        # free, the absolute part scales linearly
        q = rng.uniform(0, 1, (8, 6))
        omega = np.ones_like(q)
        assert np.array_equal(
            terminal_table(2.0 * q[:, 0], 6),
            terminal_table(q[:, 0], 6),
        )
        base = adv.adae(q, 0.5, omega) - group_relative(q)
        doubled = adv.adae(2.0 * q, 0.5, omega) - group_relative(2.0 * q)
        assert np.max(np.abs(doubled - 2.0 * base)) < 1e-10

    def test_full_reduction_to_terminal_normalization_bit_for_bit(self, rng):
        # terminal broadcast + k = 0 + unit weights reproduces the sparse table
        terminal = rng.uniform(0, 1, 8)
        t_steps = 10
        q = np.tile(terminal[:, None], (1, t_steps))
        table = adv.adae(q, 0.0, np.ones_like(q))
        sparse = grpo_advantages(terminal, t_steps, adv.DEFAULT_EPS_STD)
        assert np.array_equal(table, sparse)


@given(
    rewards=st.lists(st.floats(0, 1), min_size=1, max_size=12),
    gamma=st.floats(0, 0.999),
)
def test_recursion_matches_direct_summation_property(rewards, gamma):
    r = np.array(rewards)
    got = adv.cumulative_values(r, gamma)
    assert np.max(np.abs(got - discounted_sum(r, gamma))) < 1e-12


@given(
    seed=st.integers(0, 2**16),
    g_size=st.integers(2, 10),
    t_steps=st.integers(1, 8),
    k=st.floats(0, 2),
)
def test_adae_decomposition_property(seed, g_size, t_steps, k):
    rng = np.random.default_rng(seed)
    q = rng.uniform(0, 1, (g_size, t_steps))
    omega = rng.uniform(0.25, 2.0, (g_size, t_steps))
    table = adv.adae(q, k, omega)
    stds = q.std(axis=0)
    rebuilt = omega * (group_normalize(q, adv.DEFAULT_EPS_STD) + k * q)
    for j in range(t_steps):
        if stds[j] >= adv.DEFAULT_EPS_STD:
            assert np.max(np.abs(table[:, j] - rebuilt[:, j])) < 1e-10
        else:
            assert np.allclose(table[:, j], omega[:, j] * k * q[:, j], atol=1e-12)
