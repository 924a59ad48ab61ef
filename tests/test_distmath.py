"""Distribution numerics against independent oracles: direct enumeration
with exact combinatorics and scipy's incomplete-beta route."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from srrb.distmath import (
    bernoulli_kl,
    beta_tail,
    binomial_cdf,
    binomial_pmf,
    expected_inverse_tail_binomial,
    expected_inverse_tail_pb,
    pb_pmf,
    roos_tv_bound,
    tv_distance,
)


def enum_binomial_pmf(n, p):
    """Oracle: term-by-term binomial pmf from exact combinatorics."""
    return [math.comb(n, s) * p**s * (1 - p) ** (n - s) for s in range(n + 1)]


def enum_pb_pmf(probs):
    """Oracle: O(2^n) subset-sum enumeration of the Poisson-Binomial pmf."""
    n = len(probs)
    pmf = [0.0] * (n + 1)
    for outcome in itertools.product((0, 1), repeat=n):
        weight = 1.0
        for p, x in zip(probs, outcome):
            weight *= p if x else 1.0 - p
        pmf[sum(outcome)] += weight
    return pmf


class TestBernoulliKL:
    def test_diagonal_is_zero(self):
        for x in (0.0, 0.2, 0.5, 0.99, 1.0):
            assert bernoulli_kl(x, x) == 0.0

    def test_zero_success_case(self):
        for y in (0.1, 0.5, 0.9):
            assert bernoulli_kl(0.0, y) == pytest.approx(math.log(1.0 / (1.0 - y)), rel=1e-14)

    def test_direct_value(self):
        # 0.5*log(2) + 0.5*log(2/3), evaluated independently
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert bernoulli_kl(0.5, 0.25) == pytest.approx(expected, rel=1e-14)
        assert bernoulli_kl(0.5, 0.25) == pytest.approx(0.14384103622589042, abs=1e-15)

    def test_degenerate_reference(self):
        assert bernoulli_kl(0.5, 0.0) == math.inf
        assert bernoulli_kl(0.5, 1.0) == math.inf
        assert bernoulli_kl(1.0, 1.0) == 0.0

    @given(
        hst.floats(min_value=0.0, max_value=1.0),
        hst.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    def test_nonnegative(self, x, y):
        assert bernoulli_kl(x, y) >= 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bernoulli_kl(-0.1, 0.5)
        with pytest.raises(ValueError):
            bernoulli_kl(0.5, 1.5)


class TestBinomialCdf:
    def test_edges(self):
        assert binomial_cdf(10, 0.3, -1) == 0.0
        assert binomial_cdf(10, 0.3, 10) == 1.0
        assert binomial_cdf(10, 0.0, 0) == 1.0
        assert binomial_cdf(10, 1.0, 9) == 0.0

    def test_half_for_three_fair_trials(self):
        # 1/8 + 3/8 by direct enumeration
        assert binomial_cdf(3, 0.5, 1) == pytest.approx(0.5, rel=1e-15)

    def test_zero_successes_closed_form(self):
        for j in range(0, 30):
            for y in (0.1, 0.45, 0.9):
                assert binomial_cdf(j + 1, y, 0) == pytest.approx((1 - y) ** (j + 1), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 7, 23, 60])
    def test_against_enumeration(self, n):
        for p in (0.05, 0.31, 0.5, 0.77, 0.95):
            pmf = enum_binomial_pmf(n, p)
            acc = 0.0
            for k in range(n + 1):
                acc += pmf[k]
                assert binomial_cdf(n, p, k) == pytest.approx(min(acc, 1.0), rel=1e-12)

    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
    def test_large_n_relative_error(self, n):
        for p in (0.3, 0.9):
            for frac in (0.9, 1.0, 1.1):
                k = min(n, int(frac * n * p))
                reference = st.binom.cdf(k, n, p)
                assert binomial_cdf(n, p, k) == pytest.approx(reference, rel=1e-12)

    def test_far_tail_exact_rational(self):
        # deep lower tail where doubles underflow term-by-term paths
        n, p, k = 100_000, 0.5, 30_000
        pf = Fraction(1, 2)
        exact = float(sum(Fraction(math.comb(n, s)) * pf**n for s in range(0, k + 1, 7919)))
        assert exact >= 0.0  # spot sample only; full sum is the scipy value
        assert binomial_cdf(n, p, k) == pytest.approx(st.binom.cdf(k, n, p), rel=1e-11)

    @given(
        hst.integers(min_value=0, max_value=40),
        hst.floats(min_value=0.01, max_value=0.99),
        hst.integers(min_value=-1, max_value=40),
    )
    @settings(max_examples=60)
    def test_matches_scipy(self, n, p, k):
        k = min(k, n)
        assert binomial_cdf(n, p, k) == pytest.approx(st.binom.cdf(k, n, p), rel=1e-11, abs=1e-300)


class TestBinomialPmf:
    def test_matches_enumeration(self):
        for n in (0, 1, 5, 19):
            for p in (0.0, 0.2, 0.5, 1.0):
                np.testing.assert_allclose(binomial_pmf(n, p), enum_binomial_pmf(n, p), rtol=1e-12, atol=1e-300)

    def test_sums_to_one(self):
        for n in (3, 64, 257):
            assert binomial_pmf(n, 0.37).sum() == pytest.approx(1.0, abs=1e-12)


class TestBetaTail:
    def test_uniform_prior(self):
        for y in (0.05, 0.5, 0.95):
            assert beta_tail(1, 1, y) == pytest.approx(1.0 - y, rel=1e-14)

    def test_two_one_half(self):
        # P(Beta(2,1) > 0.5) = 1 - 0.5^2
        assert beta_tail(2, 1, 0.5) == pytest.approx(0.75, rel=1e-14)

    def test_against_incomplete_beta(self):
        for alpha in range(1, 51, 7):
            for beta in range(1, 51, 7):
                for y in np.arange(0.05, 0.951, 0.1):
                    reference = 1.0 - sps.betainc(alpha, beta, y)
                    assert beta_tail(alpha, beta, float(y)) == pytest.approx(
                        reference, abs=1e-10
                    )

    def test_monotone_in_parameters(self):
        for y in (0.2, 0.6):
            for a in range(1, 20):
                assert beta_tail(a + 1, 3, y) >= beta_tail(a, 3, y) - 1e-14
                assert beta_tail(3, a + 1, y) <= beta_tail(3, a, y) + 1e-14

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            beta_tail(0, 1, 0.5)


class TestPoissonBinomial:
    def test_single_prob(self):
        np.testing.assert_allclose(pb_pmf([0.3]), [0.7, 0.3], rtol=1e-15)

    def test_two_halves(self):
        np.testing.assert_allclose(pb_pmf([0.5, 0.5]), [0.25, 0.5, 0.25], rtol=1e-15)

    def test_against_subset_enumeration(self):
        rng = np.random.default_rng(5)
        for n in range(1, 13):
            probs = rng.uniform(0.0, 1.0, size=n)
            np.testing.assert_allclose(pb_pmf(probs), enum_pb_pmf(list(probs)), atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        probs = rng.uniform(0.05, 0.95, size=9)
        base = pb_pmf(probs)
        for _ in range(5):
            np.testing.assert_allclose(pb_pmf(rng.permutation(probs)), base, atol=1e-13)

    def test_equal_probs_degenerate_to_binomial(self):
        np.testing.assert_allclose(pb_pmf([0.42] * 11), binomial_pmf(11, 0.42), atol=1e-13)

    def test_sums_to_one_and_nonnegative(self):
        rng = np.random.default_rng(7)
        for n in (1, 50, 400):
            pmf = pb_pmf(rng.uniform(0, 1, size=n))
            assert pmf.min() >= 0.0
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_length_cap(self):
        with pytest.raises(ValueError):
            pb_pmf(np.full(5000, 0.5))


class TestTvDistance:
    def test_identical(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_binomial_pair_frozen(self):
        # direct enumeration: half L1 of (0.25,0.5,0.25) vs (0.16,0.48,0.36)
        a = enum_binomial_pmf(2, 0.5)
        b = enum_binomial_pmf(2, 0.6)
        expected = 0.5 * sum(abs(x - y) for x, y in zip(a, b))
        assert expected == pytest.approx(0.11, abs=1e-15)
        assert tv_distance(binomial_pmf(2, 0.5), binomial_pmf(2, 0.6)) == pytest.approx(
            0.11, abs=1e-12
        )

    def test_zero_padding(self):
        assert tv_distance([1.0], [0.5, 0.5]) == pytest.approx(0.5)

    def test_matches_event_supremum(self):
        # TV equals max_A |P(A) - Q(A)| over all event subsets
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.dirichlet(np.ones(9))
            b = rng.dirichlet(np.ones(9))
            sup = max(
                abs(sum(a[list(s)]) - sum(b[list(s)]))
                for r in range(10)
                for s in itertools.combinations(range(9), r)
            )
            assert tv_distance(a, b) == pytest.approx(sup, abs=1e-12)


class TestRoosTvBound:
    def test_matched_probs_give_zero(self):
        assert roos_tv_bound([0.3] * 8, 0.3) == 0.0

    def test_theta_branch_value(self):
        # recompute the theta < 1 branch by hand
        probs = np.array([0.2, 0.3, 0.4])
        mu = 0.35
        diff = mu - probs
        eta = 2 * (diff**2).sum() + diff.sum() ** 2
        theta = eta / (2 * 3 * mu * (1 - mu))
        assert theta < 1
        expected = (math.sqrt(math.e) / 2) * math.sqrt(theta) / (1 - math.sqrt(theta)) ** 2
        assert roos_tv_bound(probs, mu) == pytest.approx(expected, rel=1e-12)

    def test_dominates_exact_tv(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            probs = rng.uniform(0.05, 0.95, size=n)
            mu = float(probs.mean()) if rng.random() < 0.5 else float(rng.uniform(0.1, 0.9))
            exact = tv_distance(pb_pmf(probs), binomial_pmf(n, mu))
            assert roos_tv_bound(probs, mu) >= exact

    def test_rejects_degenerate_mu(self):
        with pytest.raises(ValueError):
            roos_tv_bound([0.5], 1.0)


class TestExpectedInverseTail:
    def test_empty_pull_case(self):
        for y in (0.2, 0.5, 0.8):
            assert expected_inverse_tail_binomial(0, 0.4, y) == pytest.approx(
                1.0 / (1.0 - y), rel=1e-13
            )

    def test_pb_equals_binomial_for_equal_probs(self):
        for p in (0.3, 0.62):
            for y in (0.25, 0.65):
                assert expected_inverse_tail_pb([p] * 6, y) == pytest.approx(
                    expected_inverse_tail_binomial(6, p, y), rel=1e-12
                )

    def test_ordering_example(self):
        # independent oracle: direct sums with exact combinatorics
        def oracle_bin(j, x, y):
            pmf = enum_binomial_pmf(j, x)
            cdf = [st.binom.cdf(s, j + 1, y) for s in range(j + 1)]
            return sum(pm / c for pm, c in zip(pmf, cdf))

        def oracle_pb(probs, y):
            j = len(probs)
            pmf = enum_pb_pmf(probs)
            cdf = [st.binom.cdf(s, j + 1, y) for s in range(j + 1)]
            return sum(pm / c for pm, c in zip(pmf, cdf))

        probs, y = [0.6, 0.8], 0.5
        e_pb = expected_inverse_tail_pb(probs, y)
        e_mean = expected_inverse_tail_binomial(2, 0.7, y)
        e_low = expected_inverse_tail_binomial(2, 0.6, y)
        assert e_pb == pytest.approx(oracle_pb(probs, y), rel=1e-10)
        assert e_mean == pytest.approx(oracle_bin(2, 0.7, y), rel=1e-10)
        assert e_low == pytest.approx(oracle_bin(2, 0.6, y), rel=1e-10)
        assert e_pb <= e_mean * (1 + 1e-12)
        assert e_mean <= e_low * (1 + 1e-12)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            expected_inverse_tail_pb([0.5] * 31, 0.5)
