"""Sequential decision policies: sliding-window Thompson sampling with Beta
and Gaussian posteriors plus UCB-style reference baselines.

A policy is described by a :class:`PolicyConfig`, the only place that
checks its parameters, and built with :func:`make_policy`.  All policies
share the same protocol: ``select_arm(t)`` then ``update(arm, reward, t)``,
with rounds numbered from 1 and strictly sequential.  Window statistics
over the last ``window`` rounds are kept in a ring of past pulls with O(1)
eviction, so an update costs O(1) and a selection O(K), regardless of the
window length.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .curves import RewardLaw, _as_float

__all__ = [
    "PolicyConfig",
    "Policy",
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


def _count(name: str, value, low: int) -> int:
    """An integer >= ``low`` (numpy integers too, but no ``bool``) as a
    Python int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _positive_real(name: str, value):
    """A finite positive real (no ``bool``); ints and floats are kept as
    given, so a config records the value it was written with."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (math.isfinite(_as_float(value)) and value > 0)
    ):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value if isinstance(value, (int, float)) else float(value)


# the one kind-specific parameter each kind reads
_KIND_PARAMS = {"gauss_swgts": "precision_scale", "ucb1": "ucb_alpha", "sw_ucb": "sw_xi"}


@dataclass(frozen=True)
class PolicyConfig:
    """Declarative policy description, checked in full on construction.

    window = None means the kind's default: the full horizon, or
    ``default_sw_window`` for ``sw_ucb``.  The named variants are
    parameterizations of the two TS kinds: forced_pulls = 0 with full
    window is plain Beta-TS, forced_pulls > 0 adds the explore-then phase,
    window < T enables sliding windows, and the Gaussian flavor
    conventionally uses forced_pulls >= 1.  ``ucb1`` is SW-UCB with
    xi = ucb_alpha, whose full-horizon window keeps lifetime statistics.

    ``precision_scale``, ``ucb_alpha`` and ``sw_xi`` are read by
    ``gauss_swgts``, ``ucb1`` and ``sw_ucb`` only, and may be set on that
    kind only; ``resolve`` fills in their defaults.  The label names the
    policy's output files, so it must be a plain file name.
    """

    kind: str
    forced_pulls: int = 0
    window: int | None = None
    precision_scale: float | None = None
    ucb_alpha: float | None = None
    sw_xi: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        if self.label is not None and (
            not isinstance(self.label, str)
            or self.label in ("", ".", "..")
            or "/" in self.label
            or "\0" in self.label
        ):
            raise ValueError(f"label must be a file name without '/', got {self.label!r}")
        checked = {
            "forced_pulls": _count("forced_pulls", self.forced_pulls, 0),
            "window": None if self.window is None else _count("window", self.window, 1),
        }
        for name in _KIND_PARAMS.values():
            value = getattr(self, name)
            if value is not None:
                checked[name] = _positive_real(name, value)
                if name != _KIND_PARAMS.get(self.kind):
                    raise ValueError(f"{name} does not apply to {self.kind} policies")
        for name, value in checked.items():
            object.__setattr__(self, name, value)

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
        precision, alpha, xi = self.precision_scale, self.ucb_alpha, self.sw_xi
        if self.kind == "gauss_swgts" and precision is None:
            precision = min((default_precision_scale(lw) for lw in laws), default=1.0)
        if self.kind == "ucb1" and alpha is None:
            alpha = 2.0
        if self.kind == "sw_ucb" and xi is None:
            xi = 0.6
        return replace(self, window=window, precision_scale=precision, ucb_alpha=alpha, sw_xi=xi)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "forced_pulls": self.forced_pulls, "window": self.window}
        param = _KIND_PARAMS.get(self.kind)
        if param is not None:
            out[param] = getattr(self, param)
        if self.label is not None:
            out["label"] = self.label
        return out


class Policy:
    """Base sequential policy over ``num_arms`` arms and ``horizon`` rounds,
    built from a resolved :class:`PolicyConfig`.

    After round t it holds per-arm counts and reward sums over rounds
    [t + 1 - window, t], ready for the next selection, and the number of
    arms whose window holds no pull.  With one pull per round, the pull
    leaving at round t is the one from round t - window, so a ring of the
    last ``window`` (arm, reward) pulls evicts in O(1).  A round adds the
    new reward before it subtracts the leaving one; the float sums depend
    on that order.
    """

    def __init__(
        self, config: PolicyConfig, num_arms: int, horizon: int, rng: np.random.Generator
    ):
        self.num_arms = num_arms
        self.horizon = horizon
        self.window = config.window
        self.forced_pulls = config.forced_pulls
        self.rng = rng
        self._ring: list[tuple[int, float]] = []
        self._counts = np.zeros(num_arms, dtype=np.int64)
        self._sums = np.zeros(num_arms)
        self._empty = num_arms
        self._rounds_done = 0

    @property
    def window_counts(self) -> np.ndarray:
        return self._counts.copy()

    @property
    def window_sums(self) -> np.ndarray:
        return self._sums.copy()

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
        counts, sums = self._counts, self._sums
        if counts[arm] == 0:
            self._empty -= 1
        counts[arm] += 1
        sums[arm] += reward
        self._rounds_done = t
        if t <= self.window:
            self._ring.append((arm, reward))
            return
        slot = (t - 1) % self.window
        old_arm, old_reward = self._ring[slot]
        self._ring[slot] = (arm, reward)
        counts[old_arm] -= 1
        sums[old_arm] -= old_reward
        if counts[old_arm] == 0:
            self._empty += 1

    def _first_empty_arm(self) -> int:
        return int(np.flatnonzero(self._counts == 0)[0])


class BetaSlidingWindowTS(Policy):
    """Thompson sampling with Beta(S+1, N-S+1) posteriors on the windowed
    success counts; accepts binary rewards only.

    One posterior sample per arm every round past the forced-exploration
    phase; arms with an empty window simply sample from the flat Beta(1,1).
    """

    def _select(self, t: int) -> int:
        counts, sums = self._counts, self._sums
        return self._argmax_with_ties(self.rng.beta(sums + 1.0, counts - sums + 1.0))

    def update(self, arm: int, reward: float, t: int) -> None:
        if reward != 0.0 and reward != 1.0:
            raise ValueError(f"Beta posteriors require rewards in {{0, 1}}, got {reward}")
        super().update(arm, reward, t)


class GaussianSlidingWindowTS(Policy):
    """Thompson sampling with Normal(S/N, 1/(scale*N)) posteriors on the
    windowed statistics.

    Whenever some arm has an empty window the lowest-indexed such arm is
    pulled outright so the posterior stays well defined.
    """

    def __init__(self, config, num_arms, horizon, rng):
        super().__init__(config, num_arms, horizon, rng)
        self.precision_scale = config.precision_scale

    def _select(self, t: int) -> int:
        if self._empty:
            return self._first_empty_arm()
        counts = self._counts
        means = self._sums / counts
        scales = np.sqrt(1.0 / (self.precision_scale * counts))
        # bit-identical to rng.normal(means, scales) at a fraction of its cost
        return self._argmax_with_ties(means + scales * self.rng.standard_normal(self.num_arms))


class SlidingWindowUCB(Policy):
    """Optimistic index on windowed statistics:
    mean + sqrt(xi * log(min(t, window)) / N); an arm with an empty window
    is pulled outright, lowest index first.

    UCB1 is this index with xi = ucb_alpha; over its default full-horizon
    window the statistics are the lifetime ones and the bonus is
    sqrt(alpha * log(t) / N).
    """

    def __init__(self, config, num_arms, horizon, rng):
        super().__init__(config, num_arms, horizon, rng)
        self.xi = config.ucb_alpha if config.kind == "ucb1" else config.sw_xi

    def _select(self, t: int) -> int:
        if self._empty:
            return self._first_empty_arm()
        counts = self._counts
        means = self._sums / counts
        bonus = np.sqrt(self.xi * math.log(min(t, self.window)) / counts)
        return self._argmax_with_ties(means + bonus)


_POLICY_CLASSES = {
    "beta_swts": BetaSlidingWindowTS,
    "gauss_swgts": GaussianSlidingWindowTS,
    "ucb1": SlidingWindowUCB,
    "sw_ucb": SlidingWindowUCB,
}


def make_policy(
    config: PolicyConfig,
    num_arms: int,
    horizon: int,
    rng: np.random.Generator,
    law: RewardLaw | Sequence[RewardLaw] | None = None,
) -> Policy:
    """Instantiate a policy from its configuration, resolved for
    ``horizon``.

    The law (one law, or the laws of every arm) supplies the default
    Gaussian precision scale and lets the Beta flavor reject non-Bernoulli
    reward models upfront.
    """
    return _POLICY_CLASSES[config.kind](config.resolve(horizon, law), num_arms, horizon, rng)
