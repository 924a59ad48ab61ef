"""Instance construction, average-reward caches, and file round-trips."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from srrb.curves import (
    BernoulliLaw,
    BoundedUniformLaw,
    ConstantCurve,
    LinearCappedCurve,
    TabulatedCurve,
)
from srrb.instance import Arm, Instance, InvalidInstanceError


def stationary(values, horizon=100):
    return Instance([Arm(ConstantCurve(v), BernoulliLaw()) for v in values], horizon)


def lower_bound_arm(cap, sigma_internal=4):
    return Arm(
        LinearCappedCurve(slope=Fraction(1, 2 * sigma_internal), cap=cap, offset=1),
        BoundedUniformLaw(half_width=0.0),
    )


class TestAtHorizon:
    def test_same_or_no_horizon_is_the_same_object(self):
        inst = stationary([0.3, 0.2])
        assert inst.at_horizon(None) is inst
        assert inst.at_horizon(100) is inst

    def test_shorter_horizon_reanchors_the_optimum(self):
        bloomer = TabulatedCurve([0.0] * 60 + [0.9] * 40)
        inst = Instance([Arm(ConstantCurve(0.3), BernoulliLaw()), Arm(bloomer, BernoulliLaw())], 100)
        short = inst.at_horizon(50)
        assert (short.horizon, short.optimal_arm, inst.optimal_arm) == (50, 0, 1)
        assert short.arms == inst.arms

    def test_subclass_cuts_to_a_plain_instance(self):
        class Tagged(Instance):
            def __init__(self, tag, arms, horizon):
                self.tag = tag
                super().__init__(arms, horizon)

        inst = Tagged("t", stationary([0.3, 0.2]).arms, 100)
        assert inst.at_horizon(100) is inst
        assert type(inst.at_horizon(40)) is Instance

    @pytest.mark.parametrize("horizon", [0, -1, 101])
    def test_horizon_outside_the_instance_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be in"):
            stationary([0.3, 0.2]).at_horizon(horizon)


class TestAverages:
    def test_constant_average(self):
        inst = stationary([0.3, 0.2])
        for t in (1, 7, 100):
            assert inst.avg_expected_reward(0, t) == pytest.approx(0.3, rel=1e-15)

    def test_ramp_averages_match_direct_sums(self):
        # oracle: plain prefix summation of the curve values
        inst = Instance([lower_bound_arm(Fraction(1, 2)), lower_bound_arm(Fraction(1, 4))], 100)
        for i in range(2):
            mus = [inst.expected_reward(i, n) for n in range(1, 101)]
            for t in (1, 4, 9, 100):
                assert inst.avg_expected_reward(i, t) == pytest.approx(
                    sum(mus[:t]) / t, rel=1e-14
                )

    def test_hard_ramp_closed_forms(self):
        # with internal ramp length 4 and horizon 100 the averaged rewards
        # have closed forms 1/2 - (4+1)/(4*100) and 1/4 - (4/2+1)/(8*100)
        inst = Instance([lower_bound_arm(Fraction(1, 2)), lower_bound_arm(Fraction(1, 4))], 100)
        assert inst.avg_expected_reward(0, 100) == pytest.approx(0.4875, abs=1e-15)
        assert inst.avg_expected_reward(1, 100) == pytest.approx(0.24625, abs=1e-15)

    def test_average_nondecreasing_for_rising_arms(self):
        inst = Instance([lower_bound_arm(Fraction(1, 2)), lower_bound_arm(Fraction(1, 4))], 500)
        for i in range(2):
            assert (np.diff(inst.avg_expected_rewards(i)) >= -1e-15).all()

    def test_round_bounds(self):
        inst = stationary([0.3, 0.2])
        with pytest.raises(ValueError):
            inst.avg_expected_reward(0, 0)
        with pytest.raises(ValueError):
            inst.avg_expected_reward(0, 101)


class TestWindowedAverages:
    def test_full_window_equals_plain_average(self):
        inst = Instance([lower_bound_arm(Fraction(1, 2)), lower_bound_arm(Fraction(1, 4))], 60)
        for t in (1, 13, 60):
            assert inst.windowed_avg_expected_rewards(0, t)[0] == inst.avg_expected_reward(0, t)

    def test_constant_any_window(self):
        inst = stationary([0.4, 0.1], horizon=50)
        # entry t - tau is the window ending at round t
        assert inst.windowed_avg_expected_rewards(0, 5)[20 - 5] == pytest.approx(0.4, rel=1e-15)

    def test_two_term_window(self):
        ramp = TabulatedCurve([n / 10 for n in range(1, 11)])
        inst = Instance([Arm(ramp, BernoulliLaw()), Arm(ConstantCurve(0.05), BernoulliLaw())], 10)
        assert inst.windowed_avg_expected_rewards(0, 2)[5 - 2] == pytest.approx(0.45, rel=1e-14)

    def test_partial_window_rejected(self):
        inst = stationary([0.4, 0.1], horizon=50)
        for tau in (0, 51):
            with pytest.raises(ValueError):
                inst.windowed_avg_expected_rewards(0, tau)

    def test_vectorized_windows_match_direct_means(self):
        inst = Instance([lower_bound_arm(Fraction(1, 2)), lower_bound_arm(Fraction(1, 4))], 40)
        tau = 7
        vector = inst.windowed_avg_expected_rewards(0, tau)
        mus = inst.expected_rewards(0)
        for idx, t in enumerate(range(tau, 41)):
            assert vector[idx] == pytest.approx(math.fsum(mus[t - tau : t]) / tau, rel=1e-14)


class TestValidation:
    def test_unique_optimum_required(self):
        with pytest.raises(InvalidInstanceError):
            stationary([0.4, 0.4])

    def test_bernoulli_range_enforced(self):
        big = TabulatedCurve([0.5, 1.2])
        with pytest.raises(InvalidInstanceError):
            Instance([Arm(big, BernoulliLaw()), Arm(ConstantCurve(0.1), BernoulliLaw())], 10)

    def test_bounded_uniform_support_enforced(self):
        # mean 0.95 with half width 0.1 pushes the support past 1
        with pytest.raises(InvalidInstanceError):
            Instance(
                [
                    Arm(ConstantCurve(0.95), BoundedUniformLaw(half_width=0.1)),
                    Arm(ConstantCurve(0.2), BoundedUniformLaw(half_width=0.1)),
                ],
                10,
            )

    def test_single_arm_allowed(self):
        inst = Instance([Arm(ConstantCurve(0.5), BernoulliLaw())], 10)
        assert inst.optimal_arm == 0

    def test_empty_and_bad_horizon(self):
        with pytest.raises(InvalidInstanceError):
            Instance([], 10)
        with pytest.raises(InvalidInstanceError):
            Instance([Arm(ConstantCurve(0.5), BernoulliLaw())], 0)


class TestSerialization:
    def test_dict_roundtrip(self):
        inst = Instance(
            [
                Arm(ConstantCurve(0.6), BernoulliLaw()),
                Arm(TabulatedCurve([0.1, 0.3]), BernoulliLaw()),
                Arm(ConstantCurve(0.2), BoundedUniformLaw(half_width=0.05)),
            ],
            25,
        )
        rebuilt = Instance.from_dict(inst.to_dict())
        assert rebuilt.to_dict() == inst.to_dict()
        for i in range(3):
            np.testing.assert_array_equal(rebuilt.expected_rewards(i), inst.expected_rewards(i))

    def test_file_roundtrip(self, tmp_path):
        inst = stationary([0.6, 0.5], horizon=42)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(inst.to_dict(), indent=2) + "\n")
        again = Instance.from_dict(json.loads(path.read_text()))
        assert again.to_dict() == inst.to_dict()
        # emit(parse(emit(x))) is byte-stable
        path2 = tmp_path / "instance2.json"
        path2.write_text(json.dumps(again.to_dict(), indent=2) + "\n")
        assert path.read_text() == path2.read_text()

    def test_floats_survive_roundtrip_exactly(self, tmp_path):
        value = 0.1234567890123456
        inst = Instance(
            [Arm(ConstantCurve(value), BernoulliLaw()), Arm(ConstantCurve(0.01), BernoulliLaw())],
            5,
        )
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_dict(), indent=2) + "\n")
        assert Instance.from_dict(json.loads(path.read_text())).expected_reward(0, 1) == value

    def test_schema_errors(self):
        with pytest.raises(ValueError):
            Instance.from_dict({"arms": []})
        with pytest.raises(ValueError):
            Instance.from_dict({"horizon": 5.5, "arms": []})
        with pytest.raises(ValueError):
            Instance.from_dict(
                {"horizon": 5, "arms": [{"family": "constant", "params": {}}]}
            )

    def test_json_file_is_plain_decimal(self, tmp_path):
        inst = stationary([0.6, 0.5], horizon=7)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_dict(), indent=2) + "\n")
        spec = json.loads(path.read_text())
        assert spec["horizon"] == 7
        assert spec["arms"][0]["params"]["value"] == 0.6
