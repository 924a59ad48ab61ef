"""Sequential decision policies: sliding-window Thompson sampling with Beta
and Gaussian posteriors plus UCB-style reference baselines.

All policies share the same protocol: ``select_arm(t)`` then
``update(arm, reward, t)``, with rounds numbered from 1 and strictly
sequential.  Window statistics over the last ``window`` rounds are kept in
a ring of past pulls with O(1) eviction, so an update costs O(1) and a
selection O(K), regardless of the window length.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .curves import RewardLaw

__all__ = [
    "PolicyConfig",
    "Policy",
    "BetaSlidingWindowTS",
    "GaussianSlidingWindowTS",
    "UCB1Policy",
    "SlidingWindowUCB",
    "make_policy",
    "default_precision_scale",
    "default_sw_window",
    "POLICY_KINDS",
]

POLICY_KINDS = ("beta_swts", "gauss_swgts", "ucb1", "sw_ucb")


def default_precision_scale(law: RewardLaw) -> float:
    """Posterior precision scale min(1 / (4 lambda^2), 1) for a reward law."""
    scale_sq = law.subgaussian_scale_sq()
    if scale_sq <= 0.0:
        return 1.0
    return min(1.0 / (4.0 * scale_sq), 1.0)


def default_sw_window(horizon: int) -> int:
    """Window recipe ceil(4 * sqrt(T log T)) used by the sliding-window UCB
    baseline (natural logarithm)."""
    if horizon < 2:
        return 1
    return min(horizon, math.ceil(4.0 * math.sqrt(horizon * math.log(horizon))))


@dataclass(frozen=True)
class PolicyConfig:
    """Declarative policy description.

    window = None means no windowing (the full horizon).  The named
    variants are parameterizations of the two TS kinds: forced_pulls = 0
    with full window is plain Beta-TS, forced_pulls > 0 adds the
    explore-then phase, window < T enables sliding windows, and the
    Gaussian flavor conventionally uses forced_pulls >= 1.
    """

    kind: str
    forced_pulls: int = 0
    window: int | None = None
    precision_scale: float | None = None  # Gaussian posterior only
    ucb_alpha: float = 2.0
    sw_xi: float = 0.6
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        if self.forced_pulls < 0:
            raise ValueError("forced_pulls must be >= 0")
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1")
        if self.precision_scale is not None and self.precision_scale <= 0.0:
            raise ValueError("precision_scale must be positive")
        if self.ucb_alpha <= 0.0 or self.sw_xi <= 0.0:
            raise ValueError("ucb_alpha and sw_xi must be positive")

    def resolve(
        self, horizon: int, law: RewardLaw | Sequence[RewardLaw] | None = None
    ) -> "PolicyConfig":
        """Fill in horizon/law dependent defaults; ``law`` is one reward law
        or the laws of every arm.  The default Gaussian precision comes from
        the largest variance proxy, and the Beta flavor needs Bernoulli laws.
        """
        laws = () if law is None else (law,) if isinstance(law, RewardLaw) else tuple(law)
        if self.kind == "beta_swts" and any(lw.kind != "bernoulli" for lw in laws):
            raise ValueError("Beta posteriors require a Bernoulli reward law")
        window = self.window
        if window is None:
            window = default_sw_window(horizon) if self.kind == "sw_ucb" else horizon
        if window > horizon:
            raise ValueError(f"window {window} exceeds horizon {horizon}")
        precision = self.precision_scale
        if precision is None and self.kind == "gauss_swgts":
            precision = min((default_precision_scale(lw) for lw in laws), default=1.0)
        return replace(self, window=window, precision_scale=precision)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "forced_pulls": self.forced_pulls, "window": self.window}
        if self.kind == "gauss_swgts":
            out["precision_scale"] = self.precision_scale
        if self.kind == "ucb1":
            out["ucb_alpha"] = self.ucb_alpha
        if self.kind == "sw_ucb":
            out["sw_xi"] = self.sw_xi
        if self.label is not None:
            out["label"] = self.label
        return out


class _WindowStats:
    """Per-arm counts and reward sums over rounds [t + 1 - window, t] after
    round t, ready for the next selection; ``empty`` counts the arms whose
    window holds no pull.

    With one pull per round, the pull leaving at round t is the one from
    round t - window, so a ring of the last ``window`` (arm, reward) pulls
    evicts in O(1).  A round adds the new reward before it subtracts the
    leaving one; the float sums depend on that order.
    """

    def __init__(self, num_arms: int, window: int):
        self.window = window
        self.ring: list[tuple[int, float]] = []
        self.counts = np.zeros(num_arms, dtype=np.int64)
        self.sums = np.zeros(num_arms)
        self.lifetime_counts = [0] * num_arms
        self.empty = num_arms

    def add(self, arm: int, reward: float, t: int) -> None:
        counts, sums = self.counts, self.sums
        if counts[arm] == 0:
            self.empty -= 1
        counts[arm] += 1
        sums[arm] += reward
        self.lifetime_counts[arm] += 1
        if t <= self.window:
            self.ring.append((arm, reward))
            return
        slot = (t - 1) % self.window
        old_arm, old_reward = self.ring[slot]
        self.ring[slot] = (arm, reward)
        counts[old_arm] -= 1
        sums[old_arm] -= old_reward
        if counts[old_arm] == 0:
            self.empty += 1


class Policy:
    """Base sequential policy over ``num_arms`` arms and ``horizon`` rounds."""

    def __init__(
        self,
        num_arms: int,
        horizon: int,
        window: int,
        forced_pulls: int,
        rng: np.random.Generator,
    ):
        if num_arms < 1:
            raise ValueError("need at least one arm")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 1 <= window <= horizon:
            raise ValueError(f"window must be in [1, {horizon}], got {window}")
        if forced_pulls < 0:
            raise ValueError("forced_pulls must be >= 0")
        self.num_arms = num_arms
        self.horizon = horizon
        self.window = window
        self.forced_pulls = forced_pulls
        self.rng = rng
        self._stats = _WindowStats(num_arms, window)
        self._rounds_done = 0

    @property
    def window_counts(self) -> np.ndarray:
        return self._stats.counts.copy()

    @property
    def window_sums(self) -> np.ndarray:
        return self._stats.sums.copy()

    @property
    def lifetime_counts(self) -> np.ndarray:
        return np.array(self._stats.lifetime_counts, dtype=np.int64)

    def _check_round(self, t: int) -> None:
        if t != self._rounds_done + 1:
            raise ValueError(
                f"rounds must be sequential: expected {self._rounds_done + 1}, got {t}"
            )
        if t > self.horizon:
            raise ValueError(f"round {t} past the horizon {self.horizon}")

    def _argmax_with_ties(self, values: np.ndarray) -> int:
        """Index of the maximum; only a tie draws (uniformly) from the rng."""
        values = values.tolist()
        best = max(values)
        ties = values.count(best)
        if ties == 1:
            return values.index(best)
        pick = int(self.rng.integers(ties))
        return [i for i, v in enumerate(values) if v == best][pick]

    def select_arm(self, t: int) -> int:
        self._check_round(t)
        if t <= self.num_arms * self.forced_pulls:
            return (t - 1) % self.num_arms
        return self._select(t)

    def _select(self, t: int) -> int:
        raise NotImplementedError

    def update(self, arm: int, reward: float, t: int) -> None:
        self._check_round(t)
        if not 0 <= arm < self.num_arms:
            raise IndexError(f"arm index {arm} out of range")
        self._ingest(arm, reward, t)
        self._rounds_done = t

    def _ingest(self, arm: int, reward: float, t: int) -> None:
        self._stats.add(arm, reward, t)


class BetaSlidingWindowTS(Policy):
    """Thompson sampling with Beta(S+1, N-S+1) posteriors on the windowed
    success counts; accepts binary rewards only.

    One posterior sample per arm every round past the forced-exploration
    phase; arms with an empty window simply sample from the flat Beta(1,1).
    """

    kind = "beta_swts"

    def _select(self, t: int) -> int:
        counts, sums = self._stats.counts, self._stats.sums
        return self._argmax_with_ties(self.rng.beta(sums + 1.0, counts - sums + 1.0))

    def _ingest(self, arm: int, reward: float, t: int) -> None:
        if reward != 0.0 and reward != 1.0:
            raise ValueError(f"Beta posteriors require rewards in {{0, 1}}, got {reward}")
        super()._ingest(arm, reward, t)


class GaussianSlidingWindowTS(Policy):
    """Thompson sampling with Normal(S/N, 1/(scale*N)) posteriors on the
    windowed statistics.

    Whenever some arm has an empty window the lowest-indexed such arm is
    pulled outright so the posterior stays well defined.
    """

    kind = "gauss_swgts"

    def __init__(self, num_arms, horizon, window, forced_pulls, rng, precision_scale: float = 1.0):
        super().__init__(num_arms, horizon, window, forced_pulls, rng)
        if precision_scale <= 0.0:
            raise ValueError("precision_scale must be positive")
        self.precision_scale = precision_scale

    def _select(self, t: int) -> int:
        if self._stats.empty:
            return int(np.flatnonzero(self._stats.counts == 0)[0])
        counts = self._stats.counts
        means = self._stats.sums / counts
        scales = np.sqrt(1.0 / (self.precision_scale * counts))
        # bit-identical to rng.normal(means, scales) at a fraction of its cost
        return self._argmax_with_ties(means + scales * self.rng.standard_normal(self.num_arms))


class SlidingWindowUCB(Policy):
    """Optimistic index on windowed statistics:
    mean + sqrt(xi * log(min(t, window)) / N); an arm with an empty window
    is pulled outright, lowest index first."""

    kind = "sw_ucb"

    def __init__(self, num_arms, horizon, window, rng, xi: float = 0.6, forced_pulls: int = 0):
        super().__init__(num_arms, horizon, window, forced_pulls, rng)
        if xi <= 0.0:
            raise ValueError("xi must be positive")
        self.xi = xi

    def _select(self, t: int) -> int:
        if self._stats.empty:
            return int(np.flatnonzero(self._stats.counts == 0)[0])
        counts = self._stats.counts
        means = self._stats.sums / counts
        bonus = np.sqrt(self.xi * math.log(min(t, self.window)) / counts)
        return self._argmax_with_ties(means + bonus)


class UCB1Policy(SlidingWindowUCB):
    """Classic optimistic index on lifetime statistics:
    mean + sqrt(alpha * log(t) / N), bootstrap round-robin first.

    This is the sliding-window index with xi = alpha and a window of the
    whole horizon, whose statistics are the lifetime ones.
    """

    kind = "ucb1"

    def __init__(self, num_arms, horizon, rng, alpha: float = 2.0, forced_pulls: int = 0):
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        super().__init__(num_arms, horizon, horizon, rng, xi=alpha, forced_pulls=forced_pulls)
        self.alpha = alpha


def make_policy(
    config: PolicyConfig,
    num_arms: int,
    horizon: int,
    rng: np.random.Generator,
    law: RewardLaw | Sequence[RewardLaw] | None = None,
) -> Policy:
    """Instantiate a policy from its configuration.

    The law (one law, or the laws of every arm) supplies the default
    Gaussian precision scale and lets the Beta flavor reject non-Bernoulli
    reward models upfront.
    """
    cfg = config.resolve(horizon, law)
    if cfg.kind == "beta_swts":
        return BetaSlidingWindowTS(num_arms, horizon, cfg.window, cfg.forced_pulls, rng)
    if cfg.kind == "gauss_swgts":
        return GaussianSlidingWindowTS(
            num_arms, horizon, cfg.window, cfg.forced_pulls, rng,
            precision_scale=cfg.precision_scale,
        )
    if cfg.kind == "ucb1":
        return UCB1Policy(num_arms, horizon, rng, alpha=cfg.ucb_alpha, forced_pulls=cfg.forced_pulls)
    if cfg.kind == "sw_ucb":
        return SlidingWindowUCB(
            num_arms, horizon, cfg.window, rng, xi=cfg.sw_xi, forced_pulls=cfg.forced_pulls
        )
    raise AssertionError(f"unhandled kind {cfg.kind!r}")
