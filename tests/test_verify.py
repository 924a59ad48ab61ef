"""The verify suites must still fail when the code they check is broken."""

import numpy as np

from srrb.policies import Policy
from srrb.verify import _lemma_chain_check, windows_suite


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
