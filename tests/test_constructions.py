"""Named instance families and their certified constants."""

from fractions import Fraction

import numpy as np
import pytest

from srrb.analytics import sigma_complexity
from srrb.constructions import (
    lower_bound_instances,
    persistent_gap_pair,
    random_rising_instance,
    vanishing_gap_pair,
)


class TestLowerBoundPair:
    def test_bound_value(self):
        pair = lower_bound_instances(15, 10, 100)
        assert pair.bound == pytest.approx(1.875, abs=0.0)

    def test_degenerate_budget(self):
        pair = lower_bound_instances(4, 2, 50)
        assert pair.bound == 0.0
        assert pair.base.num_arms == 4
        assert sigma_complexity(pair.base).overall <= 2

    def test_range_validation(self):
        with pytest.raises(ValueError):
            lower_bound_instances(3, 1, 100)
        with pytest.raises(ValueError):
            lower_bound_instances(3, 51, 100)
        with pytest.raises(ValueError):
            lower_bound_instances(1, 5, 100)

    def test_gap_constants_are_exact_fractions(self):
        pair = lower_bound_instances(6, 14, 300)
        assert isinstance(pair.base_gap, Fraction)
        assert pair.base_gap >= Fraction(5, 32)
        assert pair.boosted_gap >= Fraction(1, 8)

    def test_closed_form_averages_for_even_ramp(self):
        # with an even internal ramp the averaged rewards have closed forms
        sigma_bar, horizon = 10, 100
        internal = (sigma_bar - 2) // 2
        pair = lower_bound_instances(3, sigma_bar, horizon)
        top = pair.base.avg_expected_reward(0, horizon)
        low = pair.base.avg_expected_reward(2, horizon)
        boost = pair.boosted.avg_expected_reward(pair.boosted_arm, horizon)
        assert top == pytest.approx(0.5 - (internal + 1) / (4 * horizon), abs=1e-15)
        assert low == pytest.approx(0.25 - (internal / 2 + 1) / (8 * horizon), abs=1e-15)
        assert boost == pytest.approx(1.0 - (2 * internal + 1) / (2 * horizon), abs=1e-15)

    def test_instances_are_deterministic_laws(self):
        pair = lower_bound_instances(3, 8, 100)
        rng = np.random.default_rng(0)
        arm = pair.base.arms[0]
        assert arm.law.sample(rng, 0.37) == 0.37

    def test_boosted_arm_is_optimal_in_boosted(self):
        pair = lower_bound_instances(5, 20, 500)
        assert pair.boosted.optimal_arm == pair.boosted_arm
        assert pair.base.optimal_arm == 0


class TestVanishingGapPair:
    def test_curve_values(self):
        inst = vanishing_gap_pair(32)
        for n in (1, 2, 5, 10):
            assert inst.expected_reward(0, n) == pytest.approx(1 - 2.0**-n, rel=1e-13)
            assert inst.expected_reward(1, n) == pytest.approx(1 - 2.0 ** (-2 * n + 2), rel=1e-13)

    def test_first_arm_optimal(self):
        inst = vanishing_gap_pair(100)
        assert inst.optimal_arm == 0

    def test_average_closed_forms(self):
        inst = vanishing_gap_pair(64)
        for t in (1, 3, 17, 64):
            expected0 = 1 - (1 - 2.0**-t) / t
            expected1 = 1 - 4 * (1 - 4.0**-t) / (3 * t)
            assert inst.avg_expected_reward(0, t) == pytest.approx(expected0, rel=1e-12)
            assert inst.avg_expected_reward(1, t) == pytest.approx(expected1, rel=1e-12)

    def test_best_average_gap_vanishes(self):
        for horizon in (10, 100, 1000):
            inst = vanishing_gap_pair(horizon)
            best = max(
                inst.avg_expected_reward(0, s) - inst.avg_expected_reward(1, horizon)
                for s in range(1, horizon + 1)
            )
            assert best <= 5.0 / (6.0 * horizon)


class TestPersistentGapPair:
    def test_first_pull_is_one_half(self):
        inst = persistent_gap_pair(100, exponent=0.5)
        assert inst.expected_reward(0, 1) == pytest.approx(0.5, rel=1e-14)

    def test_constant_separation(self):
        inst = persistent_gap_pair(200, exponent=0.5)
        for n in (1, 10, 200):
            diff = inst.expected_reward(0, n) - inst.expected_reward(1, n)
            assert diff == pytest.approx(0.5, rel=1e-13)

    def test_two_pull_average_clears_ceiling(self):
        for exponent in (0.25, 0.5, 1.0):
            inst = persistent_gap_pair(1000, exponent=exponent)
            assert inst.avg_expected_reward(0, 2) > 0.5

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            persistent_gap_pair(100, exponent=0.0)


class TestRandomRisingInstance:
    def test_shape_and_determinism(self):
        a = random_rising_instance(500, num_arms=15, seed=42)
        b = random_rising_instance(500, num_arms=15, seed=42)
        assert a.num_arms == 15
        assert a.horizon == 500
        for i in range(15):
            np.testing.assert_array_equal(a.expected_rewards(i), b.expected_rewards(i))

    def test_different_seeds_differ(self):
        a = random_rising_instance(100, num_arms=5, seed=1)
        b = random_rising_instance(100, num_arms=5, seed=2)
        assert any(
            not np.array_equal(a.expected_rewards(i), b.expected_rewards(i)) for i in range(5)
        )

    def test_polynomial_shift_overflow_builds(self):
        # seed 43 draws a polynomial arm whose shift b ** (1 / rho) overflows
        inst = random_rising_instance(100, num_arms=15, seed=43)
        assert inst.num_arms == 15

    def test_curves_valid_for_bernoulli(self):
        inst = random_rising_instance(300, num_arms=15, seed=7)
        for i in range(15):
            values = inst.expected_rewards(i)
            assert values.min() >= 0.0 and values.max() <= 1.0
            assert (np.diff(values) >= -1e-15).all()
