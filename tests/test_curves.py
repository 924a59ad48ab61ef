"""Reward curve families and reward laws."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from srrb.curves import (
    BernoulliLaw,
    BoundedUniformLaw,
    ConstantCurve,
    ExponentialCurve,
    LinearCappedCurve,
    PolynomialCurve,
    TabulatedCurve,
    curve_from_dict,
    law_from_dict,
)


class TestEvaluation:
    def test_linear_capped_hits_cap(self):
        curve = LinearCappedCurve(slope=Fraction(1, 8), cap=Fraction(1, 2), offset=1)
        assert curve.mu(5) == Fraction(1, 2)
        assert curve.mu(1) == 0
        assert curve.mu(3) == Fraction(1, 4)

    def test_constant_far_out(self):
        assert (ConstantCurve(0.3).mu_array(10**6) == 0.3).all()

    def test_exponential_halving(self):
        values = ExponentialCurve(c=1.0, a=math.log(2.0)).mu_array(3)
        # 1 - 2^-n evaluated directly
        np.testing.assert_allclose(values, [0.5, 0.75, 0.875], rtol=1e-14)

    def test_polynomial_zero_b_is_constant(self):
        values = PolynomialCurve(c=0.7, b=0.0, rho=0.5).mu_array(100)
        np.testing.assert_allclose(values, 0.7)

    def test_polynomial_shift_past_the_largest_float_is_zero(self):
        # b ** (1 / rho) = 1e1000 overflows; n + shift == shift, so mu is 0
        values = PolynomialCurve(c=0.6, b=1e10, rho=0.01).mu_array(5)
        np.testing.assert_array_equal(values, np.zeros(5))

    def test_tabulated_constant_extension(self):
        curve = TabulatedCurve([0.1, 0.4, 0.9])
        np.testing.assert_array_equal(curve.mu_array(2), [0.1, 0.4])
        np.testing.assert_array_equal(curve.mu_array(5), [0.1, 0.4, 0.9, 0.9, 0.9])
        assert curve.mu_array(50)[-1] == 0.9

    def test_mu_array_matches_closed_forms(self):
        n = np.arange(1, 11)
        cases = [
            (ExponentialCurve(c=0.8, a=0.13), [0.8 * (1 - math.exp(-0.13 * k)) for k in n]),
            (
                PolynomialCurve(c=0.9, b=2.5, rho=0.4),
                [0.9 * (1 - 2.5 * (k + 2.5 ** (1 / 0.4)) ** -0.4) for k in n],
            ),
            (LinearCappedCurve(slope=0.01, cap=0.6), [0.01 * (k - 1) for k in n]),
            (ConstantCurve(0.25), [0.25] * 10),
            (TabulatedCurve([0.0, 0.2, 0.2, 0.7]), [0.0, 0.2, 0.2] + [0.7] * 7),
        ]
        for curve, expected in cases:
            np.testing.assert_allclose(curve.mu_array(10), expected, rtol=1e-14, atol=1e-17)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            LinearCappedCurve(slope=0.1, cap=0.5).mu(0)


class TestValidation:
    def test_exponential_parameter_ranges(self):
        with pytest.raises(ValueError):
            ExponentialCurve(c=0.0, a=0.5)
        with pytest.raises(ValueError):
            ExponentialCurve(c=0.5, a=1.5)

    def test_polynomial_parameter_ranges(self):
        with pytest.raises(ValueError):
            PolynomialCurve(c=0.5, b=1.0, rho=1.0001)
        with pytest.raises(ValueError):
            PolynomialCurve(c=0.5, b=-0.1, rho=0.5)

    def test_linear_capped_needs_nonnegative_start(self):
        with pytest.raises(ValueError):
            LinearCappedCurve(slope=0.1, cap=0.5, offset=2)
        with pytest.raises(ValueError):
            LinearCappedCurve(slope=-0.1, cap=0.5)

    def test_tabulated_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            TabulatedCurve([0.5, 0.4])
        with pytest.raises(ValueError):
            TabulatedCurve([])

    @pytest.mark.parametrize("bad", ["0.5", True, None, math.nan, math.inf])
    def test_parameters_must_be_finite_numbers(self, bad):
        with pytest.raises(ValueError):
            ConstantCurve(bad)
        with pytest.raises(ValueError):
            TabulatedCurve([0.1, bad])
        with pytest.raises(ValueError):
            PolynomialCurve(c=0.5, b=bad, rho=0.5)

    def test_integer_too_large_for_a_float_is_not_finite(self):
        huge = 10**400
        with pytest.raises(ValueError, match=f"value must be finite, got {huge}"):
            ConstantCurve(huge)
        with pytest.raises(ValueError, match="slope must be finite"):
            LinearCappedCurve(slope=huge, cap=Fraction(1, 2), offset=1)
        with pytest.raises(ValueError, match="b must be finite"):
            PolynomialCurve(c=0.5, b=-huge, rho=0.5)

    def test_constant_and_tabulated_store_floats(self):
        assert type(ConstantCurve(Fraction(1, 4)).value) is float
        assert TabulatedCurve([0, Fraction(1, 2)]).params() == {"values": [0.0, 0.5]}


class TestMonotonicity:
    @given(
        hst.floats(min_value=1e-3, max_value=1.0),
        hst.floats(min_value=1e-3, max_value=1.0),
    )
    def test_exponential_nondecreasing(self, c, a):
        diffs = np.diff(ExponentialCurve(c=c, a=a).mu_array(200))
        assert (diffs >= 0).all()

    @given(
        hst.floats(min_value=1e-3, max_value=1.0),
        hst.floats(min_value=0.0, max_value=20.0),
        hst.floats(min_value=1e-2, max_value=1.0),
    )
    @example(c=1.0, b=20.0, rho=0.08203125)  # mu(1) rounded to -2.2e-16 unclamped
    def test_polynomial_nondecreasing_and_bounded(self, c, b, rho):
        values = PolynomialCurve(c=c, b=b, rho=rho).mu_array(200)
        assert (np.diff(values) >= -1e-15).all()
        assert values[0] >= 0.0
        assert values[-1] <= 1.0


class TestExactArithmetic:
    def test_fraction_parameters_stay_exact(self):
        curve = LinearCappedCurve(slope=Fraction(1, 6), cap=Fraction(1, 2))
        value = curve.mu(2)
        assert isinstance(value, Fraction)
        assert value == Fraction(1, 6)

    def test_float_parameters_not_exact(self):
        assert isinstance(LinearCappedCurve(slope=0.1, cap=0.5).mu(2), float)


class TestSerialization:
    @pytest.mark.parametrize(
        "curve",
        [
            ExponentialCurve(c=0.8, a=0.13),
            PolynomialCurve(c=0.9, b=2.5, rho=0.4),
            LinearCappedCurve(slope=0.125, cap=0.5, offset=1.0),
            ConstantCurve(0.25),
            TabulatedCurve([0.0, 0.2, 0.7]),
        ],
    )
    def test_roundtrip(self, curve):
        rebuilt = curve_from_dict(curve.to_dict())
        np.testing.assert_array_equal(rebuilt.mu_array(20), curve.mu_array(20))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            curve_from_dict({"family": "spline", "params": {}})

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            curve_from_dict({"family": "exponential", "params": {"c": 0.5}})

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="'d'"):
            curve_from_dict({"family": "exponential", "params": {"c": 0.5, "a": 0.1, "d": 1}})
        with pytest.raises(ValueError):
            curve_from_dict({"family": "tabulated", "params": {"values": [0.1], "extra": 0}})


class TestLaws:
    def test_bernoulli_samples_binary_with_exact_mean(self):
        law = BernoulliLaw()
        rng = np.random.default_rng(0)
        draws = [law.sample(rng, 0.3) for _ in range(4000)]
        assert set(draws) <= {0.0, 1.0}
        assert np.mean(draws) == pytest.approx(0.3, abs=0.03)
        assert law.subgaussian_scale_sq() == 0.25

    def test_bounded_uniform_support_and_mean(self):
        law = BoundedUniformLaw(half_width=0.2)
        rng = np.random.default_rng(1)
        draws = np.array([law.sample(rng, 0.5) for _ in range(4000)])
        assert draws.min() >= 0.3 and draws.max() <= 0.7
        assert draws.mean() == pytest.approx(0.5, abs=0.01)
        assert law.subgaussian_scale_sq() == pytest.approx(0.2**2 / 3.0)
        assert BoundedUniformLaw(half_width=0.2, hoeffding=True).subgaussian_scale_sq() == (
            pytest.approx(0.04)
        )

    def test_zero_width_is_deterministic(self):
        law = BoundedUniformLaw(half_width=0.0)
        rng = np.random.default_rng(2)
        assert law.sample(rng, 0.37) == 0.37

    def test_law_roundtrip(self):
        law = BoundedUniformLaw(half_width=0.1, hoeffding=True)
        spec = law.to_dict()
        rebuilt = law_from_dict(spec["law"], spec["law_params"])
        assert rebuilt == law

    def test_unknown_law(self):
        with pytest.raises(ValueError):
            law_from_dict("gamma", {})

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("bernoulli", {"p": 0.5}),
            ("bounded_uniform", {}),
            ("bounded_uniform", {"half_width": 0.1, "width": 0.2}),
            ("bounded_uniform", {"half_width": 0.1, "hoeffding": "false"}),
            ("bounded_uniform", {"half_width": 0.1, "hoeffding": 0}),
            ("bounded_uniform", {"half_width": math.nan}),
            ("bounded_uniform", {"half_width": "0.1"}),
        ],
    )
    def test_rejects_bad_law_params(self, kind, params):
        with pytest.raises(ValueError):
            law_from_dict(kind, params)
