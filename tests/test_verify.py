"""The verify suites must still fail when the code they check is broken."""

import math

import numpy as np

from srrb import distmath
from srrb.policies import Policy
from srrb.verify import (
    _beta_ordering_check,
    _beta_tail_quadrature,
    _binomial_dominance_check,
    _lemma_chain_check,
    _roos_dominance_check,
    identities_suite,
    lemmas_suite,
    windows_suite,
)


def _update_with_shifted_eviction(self, arm, reward, t):
    """``Policy.update`` with the eviction slot off by one (``t % window``)."""
    self._check_round(t)
    counts, sums = self._counts, self._sums
    if counts[arm] == 0:
        self._empty -= 1
    counts[arm] += 1
    sums[arm] += reward
    self._rounds_done = t
    if t <= self.window:
        self._ring.append((arm, reward))
        return
    slot = t % self.window
    old_arm, old_reward = self._ring[slot]
    self._ring[slot] = (arm, reward)
    counts[old_arm] -= 1
    sums[old_arm] -= old_reward
    if counts[old_arm] == 0:
        self._empty += 1


class TestWindowsSuite:
    def test_passes_on_the_ring(self):
        check = windows_suite(traces=12).checks[0]
        assert check.passed and check.worst == 0.0
        assert check.detail == "24000 round-level comparisons"

    def test_catches_an_off_by_one_eviction(self, monkeypatch):
        monkeypatch.setattr(Policy, "update", _update_with_shifted_eviction)
        suite = windows_suite(traces=12)
        check = suite.checks[0]
        assert not suite.passed
        # 203 of the 24000 rounds: the count a round-by-round comparison gives
        assert check.worst == 203
        assert check.detail == "24000 round-level comparisons"


class TestLemmaChain:
    def test_worst_margin_pinned(self):
        # the worst relative margin over exact enumerations, pinned to its
        # bits: it reads the pmfs and the binomial CDF columns
        check = _lemma_chain_check(np.random.default_rng(20240601), vectors_per_j=10)
        assert check.passed
        assert check.worst.hex() == "0x1.4c4b92b073d40p-53"
        # and the comparison it occurs at, as the detail text names it
        assert check.detail == "worst margin at j=1 y=0.4 (pb vs mean)"


class TestPinned:
    def test_identities_worst_pinned(self):
        # recorded before the suite evaluated its grid in blocks
        identity, zero = identities_suite().checks
        assert identity.worst.hex() == "0x1.d880000000000p-44"
        assert identity.detail == "at alpha=43 beta=49 y=0.05"
        assert zero.worst == 0.0

    def test_lemmas_lines_pinned(self):
        # recorded before binomial_cdf shared one walk among the elements at
        # or above the mode of one (n, p), as the dominance and ordering
        # checks and the lemma chain's CDF columns pass them
        checks = lemmas_suite().checks
        assert [check.line() for check in checks] == [
            "[PASS] inverse-tail expectation ordering (exact enumeration): worst=2.750e-16 "
            "(threshold 1.0e-09) worst margin at j=1 y=0.6 (pb vs mean)",
            "[PASS] TV bound dominates exact TV: worst=-2.031e-04 (threshold 0.0e+00) ",
            "[PASS] binomial stochastic dominance (k, p and n): worst=-8.446e-15 "
            "(threshold 0.0e+00) ",
            "[PASS] beta tail ordering in alpha/beta: worst=-1.000e-14 (threshold 0.0e+00) ",
        ]
        assert [check.worst.hex() for check in checks] == [
            "0x1.3d17f722bbe15p-52", "-0x1.a9fda9acc9724p-13",
            "-0x1.3049b86a12b9bp-47", "-0x1.6849b86a12b9bp-47",
        ]

    def test_windows_line_pinned(self):
        # recorded before the suite compared the live lists with list rows
        assert windows_suite().checks[0].line() == (
            "[PASS] window statistics equal recounts: worst=0.000e+00 "
            "(threshold 0.0e+00) 200000 round-level comparisons"
        )

    def test_batched_quadrature_has_the_per_pair_bits(self):
        ys = np.arange(0.05, 0.951, 0.05)
        alphas, betas = np.array([1, 7, 43, 50, 2]), np.array([1, 9, 49, 50, 33])
        batched = _beta_tail_quadrature(alphas, betas, ys)
        for row, a, b in zip(batched, alphas, betas):
            assert row.tobytes() == _beta_tail_quadrature(np.array([a]), np.array([b]), ys)[0].tobytes()


def _planted(real, hit):
    """``real`` with NaN in place of each element where ``hit`` of the
    arguments holds."""
    def call(*args):
        return np.where(hit(*map(np.asarray, args)), np.nan, real(*args))
    return call


def _at_half(y):
    return np.abs(y - 0.5) < 1e-9


class TestPlantedNaN:
    """A NaN from the code under test makes its check's worst NaN, so the
    check fails instead of passing over it.  The checks import each kernel
    from ``srrb.distmath`` when they run, so it is planted there."""

    @staticmethod
    def _fails(check):
        assert math.isnan(check.worst) and not check.passed
        assert check.line().startswith("[FAIL]") and "worst=nan" in check.line()

    def test_beta_tail_identity(self, monkeypatch):
        monkeypatch.setattr(distmath, "beta_tail", _planted(
            distmath.beta_tail, lambda a, b, y: (a == 7) & (b == 9) & _at_half(y)))
        check = identities_suite().checks[0]
        self._fails(check)
        assert check.detail == "at alpha=7 beta=9 y=0.50"

    def test_binomial_cdf_at_zero(self, monkeypatch):
        monkeypatch.setattr(distmath, "binomial_cdf", _planted(
            distmath.binomial_cdf, lambda n, p, k: n == 17))
        self._fails(identities_suite().checks[1])

    def test_lemma_chain(self, monkeypatch):
        real = distmath.expected_inverse_tail
        monkeypatch.setattr(distmath, "expected_inverse_tail", lambda pmf, y: (
            math.nan if len(pmf) == 4 and _at_half(y) else real(pmf, y)))
        check = _lemma_chain_check(np.random.default_rng(20240601), vectors_per_j=2)
        self._fails(check)
        assert check.detail == "worst margin at j=3 y=0.5 (pb vs mean)"

    def test_roos_dominance(self, monkeypatch):
        real, calls = distmath.roos_tv_bound, []

        def bound(probs, mu):
            calls.append(mu)
            return math.nan if len(calls) == 3 else real(probs, mu)

        monkeypatch.setattr(distmath, "roos_tv_bound", bound)
        self._fails(_roos_dominance_check(np.random.default_rng(20240603), cases=20))

    def test_binomial_dominance(self, monkeypatch):
        monkeypatch.setattr(distmath, "binomial_cdf", _planted(
            distmath.binomial_cdf, lambda n, p, k: n == 17))
        self._fails(_binomial_dominance_check())

    def test_beta_ordering(self, monkeypatch):
        monkeypatch.setattr(distmath, "beta_tail", _planted(
            distmath.beta_tail, lambda a, b, y: (a == 7) & (b == 10) & _at_half(y)))
        self._fails(_beta_ordering_check())

    def test_window_statistics(self, monkeypatch):
        real = Policy.update

        def update(self, arm, reward, t):
            real(self, arm, reward, t)
            if t == 1000:
                self._sums[arm] = math.nan

        monkeypatch.setattr(Policy, "update", update)
        check = windows_suite(traces=3).checks[0]
        assert not check.passed and check.worst > 0
