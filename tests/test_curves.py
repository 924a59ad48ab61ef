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
        assert ConstantCurve(0.3).mu(10**6) == 0.3

    def test_exponential_halving(self):
        curve = ExponentialCurve(c=1.0, a=math.log(2.0))
        # 1 - 2^-n evaluated directly
        assert curve.mu(3) == pytest.approx(0.875, rel=1e-14)
        assert curve.mu(1) == pytest.approx(0.5, rel=1e-14)

    def test_polynomial_zero_b_is_constant(self):
        curve = PolynomialCurve(c=0.7, b=0.0, rho=0.5)
        assert curve.mu(1) == pytest.approx(0.7)
        assert curve.mu(100) == pytest.approx(0.7)

    def test_tabulated_constant_extension(self):
        curve = TabulatedCurve([0.1, 0.4, 0.9])
        assert curve.mu(2) == 0.4
        assert curve.mu(3) == 0.9
        assert curve.mu(50) == 0.9
        np.testing.assert_allclose(curve.mu_array(5), [0.1, 0.4, 0.9, 0.9, 0.9])

    def test_mu_array_matches_scalar(self):
        curves = [
            ExponentialCurve(c=0.8, a=0.13),
            PolynomialCurve(c=0.9, b=2.5, rho=0.4),
            LinearCappedCurve(slope=0.01, cap=0.6),
            ConstantCurve(0.25),
            TabulatedCurve([0.0, 0.2, 0.2, 0.7]),
        ]
        for curve in curves:
            array = curve.mu_array(10)
            for n in range(1, 11):
                assert array[n - 1] == pytest.approx(float(curve.mu(n)), rel=1e-15)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            ConstantCurve(0.5).mu(0)


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
