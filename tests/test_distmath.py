"""Distribution numerics against independent oracles: direct enumeration
with exact combinatorics and scipy's incomplete-beta route."""

import functools
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
    _anchors,
    _walk,
    bernoulli_kl,
    beta_tail,
    binomial_cdf,
    binomial_pmf,
    binomial_pmfs,
    expected_inverse_tail,
    pb_pmf,
    roos_tv_bound,
    tv_distance,
)


def enum_binomial_pmf(n, p):
    """Oracle: term-by-term binomial pmf from exact combinatorics."""
    return [math.comb(n, s) * p**s * (1 - p) ** (n - s) for s in range(n + 1)]


@functools.lru_cache(maxsize=None)
def loop_anchor(n, p, s):
    """Reference: C(n,s) p^s (1-p)^(n-s), 0 < p < 1, by float arithmetic up to
    n = 1000 and as an exact big integer beyond (or where the float powers
    could underflow)."""
    if n <= 1000 and s * math.log(p) + (n - s) * math.log1p(-p) > -700.0:
        return math.comb(n, s) * math.pow(p, s) * math.pow(1.0 - p, n - s)
    frac = Fraction(p)
    ip, e = frac.numerator, -(frac.denominator.bit_length() - 1)
    iq = (1 << -e) - ip
    num = math.comb(n, s) * pow(ip, s) * pow(iq, n - s)
    shift = max(num.bit_length() - 64, 0)
    return math.ldexp(num >> shift, shift + e * n)


def loop_binomial_pmf(n, p):
    """Reference: the mode-anchored term loop, one Python product per entry."""
    out = np.zeros(n + 1)
    if p == 0.0 or p == 1.0:
        out[0 if p == 0.0 else n] = 1.0
        return out
    mode = min(max(int(math.floor((n + 1) * p)), 0), n)
    anchor = loop_anchor(n, p, mode)
    out[mode] = anchor
    q = 1.0 - p
    t = anchor
    for s in range(mode, 0, -1):
        t *= (s * q) / ((n - s + 1) * p)
        out[s - 1] = t
    t = anchor
    for s in range(mode, n):
        t *= ((n - s) * p) / ((s + 1) * q)
        out[s + 1] = t
    return out


def loop_binomial_cdf(n, p, k):
    """Reference: the scalar CDF term loop, anchored at min(mode, k), that
    stops each walk after its first term below anchor * 1e-22."""
    if k == -1:
        return 0.0
    if k == n or p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    q = 1.0 - p
    anchor_s = min(min(max(int(math.floor((n + 1) * p)), 0), n), k)
    anchor = loop_anchor(n, p, anchor_s)
    terms = [anchor]
    t = anchor
    for s in range(anchor_s, 0, -1):
        t *= (s * q) / ((n - s + 1) * p)
        terms.append(t)
        if t < anchor * 1e-22:
            break
    t = anchor
    for s in range(anchor_s, k):
        t *= ((n - s) * p) / ((s + 1) * q)
        terms.append(t)
        if t < anchor * 1e-22:
            break
    return min(math.fsum(terms), 1.0)


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


class TestBinomialCdfBits:
    """Array and scalar binomial_cdf against the scalar term loop, bit for
    bit: the smallest trial counts, the n = 1000/1001 switch to the exact
    anchor, and modes at 0 and n (p = 1e-9 and 1 - 1e-9)."""

    NS = list(range(120)) + [999, 1000, 1001, 1500]
    PS = [0.0, 1.0, 1e-9, 1.0 - 1e-9, 0.5, *np.random.default_rng(20240602).random(3).tolist()]
    # Past n = 1000 each (n, k) needs its own big-integer anchor, in the
    # loop (where k is below the mode) and in the array call alike; there
    # every 13th k (and k = n - 1) keeps the test's time down.
    STRIDE = {p: 13 for p in PS[2:] if p != 0.5}

    @pytest.mark.parametrize("p", PS)
    def test_array_every_k(self, p):
        ks = [np.arange(-1, m + 1) if m < 1000 else
              np.union1d(np.arange(-1, m + 1, self.STRIDE.get(p, 1)), [m - 1, m])
              for m in self.NS]
        n = np.concatenate([np.full(k.size, m) for m, k in zip(self.NS, ks)])
        k = np.concatenate(ks)
        want = np.array([loop_binomial_cdf(m, p, j) for m, j in zip(n.tolist(), k.tolist())])
        assert binomial_cdf(n, p, k).tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", PS)
    def test_scalar_is_a_float_with_the_loop_bits(self, p):
        for n in (0, 1, 2, 7, 40, 119, 1001):
            for k in range(-1, n + 1, 1 + n // 40):
                got = binomial_cdf(n, p, k)
                assert type(got) is float
                assert got.hex() == loop_binomial_cdf(n, p, k).hex(), (n, k)

    def test_broadcast_shapes(self):
        n = np.array([[3], [17], [40]])
        p = np.array([0.05, 0.35, 0.5, 0.95])
        out = binomial_cdf(n, p, 2)
        assert out.shape == (3, 4)
        for (i, j), value in np.ndenumerate(out):
            assert value.hex() == loop_binomial_cdf(int(n[i, 0]), float(p[j]), 2).hex()
        k = np.arange(-1, 4)[:, None, None]
        assert binomial_cdf(n, p, k).shape == (5, 3, 4)
        assert binomial_cdf(np.array([5]), 0.5, 2).shape == (1,)
        assert binomial_cdf(np.zeros((0, 2), dtype=int), 0.5, 0).shape == (0, 2)

    def test_identities_call_shape(self):
        # (pairs, 1) x 19 thresholds in one call, as the identities suite
        # makes it: at each (n, y) the elements at or above the mode share
        # one walk
        ys = np.arange(0.05, 0.951, 0.05)
        alpha, beta = (grid.reshape(-1, 1) for grid in np.meshgrid(
            np.arange(1, 51, 3), np.arange(1, 51, 2), indexing="ij"))
        got = binomial_cdf(alpha + beta - 1, ys, alpha - 1)
        want = np.array([[loop_binomial_cdf(a + b - 1, y, a - 1) for y in ys.tolist()]
                         for a, b in zip(alpha.ravel().tolist(), beta.ravel().tolist())])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [0.3, 0.9137])
    def test_anchors_carried_along_n_and_s(self, p):
        # every s at consecutive n, and points either side of the switch to
        # the exact anchor at n = 1000, in the order binomial_cdf passes them
        points = [(n, s) for n in (40, 41, 42) for s in range(n + 1)]
        points += [(n, s) for n in (999, 1000, 1001, 1002)
                   for s in range(int(n * p) - 2, int(n * p) + 3)]
        ns, ss = zip(*points)
        got = _anchors(p, list(ns), list(ss))
        assert [value.hex() for value in got] == [loop_anchor(n, p, s).hex() for n, s in points]

    def test_walk_keeps_the_first_term_below_the_cutoff(self):
        # a term below anchor * 1e-22 moves a double sum too rarely for a
        # CDF grid to show, so the kept mask is checked on its own
        ratios = np.array([[0.5, 1e-23, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5], [1e-30, 0.5, 0.5, 0.5]])
        terms, kept = _walk(np.ones(3), ratios, np.array([4, 2, 0]))
        assert terms[0].tolist() == [1.0, 0.5, 5e-24, 2.5e-24, 1.25e-24]
        assert kept.tolist() == [[True, True, True, False, False],
                                 [True, True, True, False, False],
                                 [True, False, False, False, False]]

    @pytest.mark.parametrize("n, p, k", [
        (np.array([3, -1]), 0.5, 0),
        (4, np.array([0.5, 1.5]), 0),
        (4, np.array([0.5, np.nan]), 0),
        (4, 0.5, np.array([0, -2])),
        (np.array([4, 5]), 0.5, np.array([4, 6])),
    ])
    def test_out_of_range_in_an_array_raises(self, n, p, k):
        with pytest.raises(ValueError):
            binomial_cdf(n, p, k)


class TestBinomialPmf:
    def test_matches_enumeration(self):
        for n in (0, 1, 5, 19):
            for p in (0.0, 0.2, 0.5, 1.0):
                np.testing.assert_allclose(binomial_pmf(n, p), enum_binomial_pmf(n, p), rtol=1e-12, atol=1e-300)

    def test_sums_to_one(self):
        for n in (3, 64, 257):
            assert binomial_pmf(n, 0.37).sum() == pytest.approx(1.0, abs=1e-12)

    # The smallest trial counts, and the n = 1000/1001 switch to the exact
    # anchor crossed in both directions.
    EDGE_NS = (0, 1, 2, 999, 1000, 1001, 1002)
    EDGE_PS = (0.0, 1.0, 1e-9, 1.0 - 1e-9, 0.5)

    def test_same_bits_as_term_loop_for_random_p(self):
        rng = np.random.default_rng(20240601)
        for n in range(0, 401):
            p = float(rng.random())
            assert binomial_pmf(n, p).tobytes() == loop_binomial_pmf(n, p).tobytes(), (n, p)

    @pytest.mark.parametrize("p", EDGE_PS + (0.123456789, 0.9137))
    def test_same_bits_as_term_loop_across_switches(self, p):
        for n in self.EDGE_NS:
            assert binomial_pmf(n, p).tobytes() == loop_binomial_pmf(n, p).tobytes(), n

    def test_switch_cases_include_modes_zero_and_n(self):
        for n in self.EDGE_NS:
            assert int(np.argmax(loop_binomial_pmf(n, 1e-9))) == 0
            assert int(np.argmax(loop_binomial_pmf(n, 1.0 - 1e-9))) == n


class TestBinomialPmfs:
    @pytest.mark.parametrize("p", [0.123456789, 0.9137, 0.03, 0.5])
    def test_carried_anchor_gives_binomial_pmf_bits(self, p):
        pmfs = list(binomial_pmfs(p, 0, 1301))
        assert len(pmfs) == 1301
        for j, pmf in enumerate(pmfs):
            assert pmf.tobytes() == binomial_pmf(j, p).tobytes(), j

    @pytest.mark.parametrize("p", [0.0, 1.0, 0.9137])
    def test_starts_mid_range(self, p):
        pmfs = list(binomial_pmfs(p, 1100, 1110))
        assert [pmf.size for pmf in pmfs] == list(range(1101, 1111))
        for j, pmf in zip(range(1100, 1110), pmfs):
            assert pmf.tobytes() == binomial_pmf(j, p).tobytes(), j

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            next(binomial_pmfs(1.5, 0, 3))
        with pytest.raises(ValueError):
            next(binomial_pmfs(0.5, -1, 3))


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
        with pytest.raises(ValueError):
            beta_tail(np.array([2, 3]), np.array([1, 0]), 0.5)
        with pytest.raises(ValueError):
            beta_tail(2, 3, np.array([0.5, -0.1]))

    def test_broadcasts_with_the_scalar_bits(self):
        alpha, beta, y = np.arange(1, 6)[:, None, None], np.arange(1, 5)[:, None], np.array([0.1, 0.6])
        out = beta_tail(alpha, beta, y)
        assert out.shape == (5, 4, 2)
        assert type(beta_tail(2, 3, 0.5)) is float
        for (a, b, j), value in np.ndenumerate(out):
            assert value.hex() == beta_tail(a + 1, b + 1, float(y[j])).hex()


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
    @staticmethod
    def oracle(pmf, y):
        """Direct sum of pmf(s) / F_{j+1,y}(s) with scipy's binomial CDF."""
        j = len(pmf) - 1
        return sum(pm / st.binom.cdf(s, j + 1, y) for s, pm in enumerate(pmf))

    def test_empty_pull_case(self):
        for y in (0.2, 0.5, 0.8):
            assert expected_inverse_tail(binomial_pmf(0, 0.4), y) == pytest.approx(
                1.0 / (1.0 - y), rel=1e-13
            )

    def test_pb_equals_binomial_for_equal_probs(self):
        for p in (0.3, 0.62):
            for y in (0.25, 0.65):
                assert expected_inverse_tail(pb_pmf([p] * 6), y) == pytest.approx(
                    expected_inverse_tail(binomial_pmf(6, p), y), rel=1e-12
                )

    def test_ordering_example(self):
        # independent oracle: direct sums over exactly enumerated pmfs
        probs, y = [0.6, 0.8], 0.5
        e_pb = expected_inverse_tail(pb_pmf(probs), y)
        e_mean = expected_inverse_tail(binomial_pmf(2, 0.7), y)
        e_low = expected_inverse_tail(binomial_pmf(2, 0.6), y)
        assert e_pb == pytest.approx(self.oracle(enum_pb_pmf(probs), y), rel=1e-10)
        assert e_mean == pytest.approx(self.oracle(enum_binomial_pmf(2, 0.7), y), rel=1e-10)
        assert e_low == pytest.approx(self.oracle(enum_binomial_pmf(2, 0.6), y), rel=1e-10)
        assert e_pb <= e_mean * (1 + 1e-12)
        assert e_mean <= e_low * (1 + 1e-12)

    def test_any_pmf_against_direct_sum(self):
        # neither binomial nor Poisson-Binomial: a zero inside, mass at both ends
        pmf = [0.1, 0.0, 0.45, 0.05, 0.15, 0.25]
        for y in (0.1, 0.5, 0.93):
            assert expected_inverse_tail(pmf, y) == pytest.approx(self.oracle(pmf, y), rel=1e-12)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            expected_inverse_tail(pb_pmf([0.5] * 31), 0.5)
        assert expected_inverse_tail(pb_pmf([0.5] * 30), 0.5) > 1.0

    @pytest.mark.parametrize("pmf", [[], np.full(32, 1 / 32)], ids=["empty", "32_entries"])
    def test_rejects_pmf_length(self, pmf):
        with pytest.raises(ValueError, match="exact enumeration"):
            expected_inverse_tail(pmf, 0.5)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_rejects_threshold_at_the_ends(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            expected_inverse_tail(binomial_pmf(3, 0.5), threshold)
