"""Sequential decision policies: sliding-window Thompson sampling with Beta
and Gaussian posteriors plus UCB-style reference baselines.

A policy is described by a :class:`PolicyConfig`, the only place that
checks its parameters, and built with :func:`make_policy`.  All policies
share the same protocol: ``select_arm(t)`` then ``update(arm, reward, t)``,
with rounds numbered from 1 and strictly sequential.  Window statistics
over the last ``window`` rounds are kept in a ring of past pulls with O(1)
eviction, so an update costs O(1) and a selection O(K), regardless of the
window length.  Counts and sums are Python scalars, summed bit for bit
as numpy would.  Each kind caches two index inputs per arm; ``update``
refreshes them for the pulled and the evicted arm only.  A kind is one
``_KINDS`` row, an ``_index`` and a ``_refresh``.

Up to ``_LIST_ARMS`` arms the inputs are Python lists and ``_index`` works
arm by arm: list comprehensions with the IEEE operations of the
whole-array formula in its order, and one scalar ``rng.beta`` call per
arm for Beta-TS.  Above that they are numpy arrays and ``_index`` makes
whole-array calls, whose fixed cost the arms then outweigh.  Array Beta-TS
keeps its inputs interleaved and, once no window is empty, draws all the
posteriors with one ``rng.standard_gamma`` call, as Ga / (Ga + Gb), which
is how ``rng.beta`` draws any Beta but Beta(1, 1).  Past round ``window``
the UCB bonus no longer grows, so a UCB window shorter than the horizon
(SW-UCB's default) keeps its index list and refreshes its pulled and
evicted entries.  Every path gives the same bits, and the same draws in
arm order from the same generator.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

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

# the largest K at which the index inputs are lists and Beta-TS draws per
# arm: timed per run_single round against the standard_gamma array path,
# lists save Beta-TS 1 to 2 µs at K = 11 to 13 but 0.2 µs at 14, where
# arrays save a Gaussian round 0.3 µs (UCB1 rounds move 0.2 µs or less)
_LIST_ARMS = 13


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


@dataclass(frozen=True)
class PolicyConfig:
    """Declarative policy description, checked in full on construction.

    The kind's row of ``_KINDS`` names its one parameter field
    (``precision_scale``, ``ucb_alpha`` or ``sw_xi``, which may be set on
    that kind only) and the defaults ``resolve`` fills in.  The named
    variants are parameterizations of the two TS kinds: forced_pulls = 0
    with full window is plain Beta-TS, forced_pulls > 0 adds the
    explore-then phase, window < T enables sliding windows, and the
    Gaussian flavor conventionally uses forced_pulls >= 1.  The label
    names the policy's output files, so it must be a plain file name.
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
        for name in _PARAMS:
            value = getattr(self, name)
            if value is not None:
                checked[name] = _positive_real(name, value)
                if name != _KINDS[self.kind].param:
                    raise ValueError(f"{name} does not apply to {self.kind} policies")
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def resolve(
        self, horizon: int, law: RewardLaw | Sequence[RewardLaw] | None = None
    ) -> "PolicyConfig":
        """Fill in horizon/law dependent defaults; ``law`` is one reward law
        or the laws of every arm.  The default Gaussian precision comes from
        the largest variance proxy, and the Beta flavor needs Bernoulli laws.
        A config with nothing left to fill in is returned as it is.
        """
        laws = () if law is None else (law,) if isinstance(law, RewardLaw) else tuple(law)
        if self.kind == "beta_swts" and any(lw.kind != "bernoulli" for lw in laws):
            raise ValueError("Beta posteriors require a Bernoulli reward law")
        row = _KINDS[self.kind]
        window = row.default_window(horizon) if self.window is None else self.window
        if max(window, self.forced_pulls) > horizon:
            raise ValueError(f"window {window} or forced_pulls {self.forced_pulls} > horizon {horizon}")
        filled = {"window": window} if self.window is None else {}
        if row.param is not None and getattr(self, row.param) is None:
            filled[row.param] = row.default(laws)
        return replace(self, **filled) if filled else self

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "forced_pulls": self.forced_pulls, "window": self.window}
        param = _KINDS[self.kind].param
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

    Every kind runs the same round: the forced round-robin phase, then (if
    ``pulls_empty_arms``) the lowest arm whose window holds no pull, else
    the argmax of the kind's ``_index``.  ``param`` holds the value of the
    kind's one parameter field, or None.  If ``binary_rewards``, ``update``
    takes only the rewards 0 and 1.
    """

    pulls_empty_arms = True
    binary_rewards = False

    def __init__(
        self, config: PolicyConfig, num_arms: int, horizon: int, rng: np.random.Generator
    ):
        self.num_arms = num_arms
        self.horizon = horizon
        self.window = config.window
        self.forced_pulls = config.forced_pulls
        param = _KINDS[config.kind].param
        self.param = None if param is None else getattr(config, param)
        self.rng = rng
        self._ring: list[tuple[int, float]] = []
        self._counts = [0] * num_arms
        self._sums = [0.0] * num_arms
        ones = [1.0] * num_arms if num_arms <= _LIST_ARMS else np.ones(num_arms)
        self._p, self._q = ones, ones.copy()  # the kind's index inputs (Beta(1, 1) if empty)
        self._empty = num_arms
        self._rounds_done = 0
        self._forced_until = num_arms * config.forced_pulls

    def window_lists(self) -> tuple[list[int], list[float]]:
        """The live window count and sum lists; only ``update`` changes them."""
        return self._counts, self._sums

    def _check_round(self, t: int) -> None:
        expected = self._rounds_done + 1
        if t == expected <= self.horizon:
            return
        if t != expected:
            raise ValueError(f"rounds must be sequential: expected {expected}, got {t}")
        raise ValueError(f"round {t} past the horizon {self.horizon}")

    def select_arm(self, t: int) -> int:
        if t != self._rounds_done + 1 or t > self.horizon:
            self._check_round(t)
        if t <= self._forced_until:
            return (t - 1) % self.num_arms
        if self._empty and self.pulls_empty_arms:
            return self._counts.index(0)
        # the argmax; only a tie draws (uniformly) from the rng
        values = self._index(t)
        best = max(values)
        ties = values.count(best)
        if ties == 1:
            return values.index(best)
        pick = int(self.rng.integers(ties))
        return [i for i, v in enumerate(values) if v == best][pick]

    def _index(self, t: int) -> list:
        """Per-arm selection values at round t as a list, from ``_p`` and
        ``_q``, which a kind's ``_refresh(arm)`` recomputes from the arm's
        window; the list may be one the kind keeps, so callers only read it."""
        raise NotImplementedError

    def update(self, arm: int, reward: float, t: int) -> None:
        if self.binary_rewards and reward != 0.0 and reward != 1.0:
            raise ValueError(f"Beta posteriors require rewards in {{0, 1}}, got {reward}")
        if t != self._rounds_done + 1 or t > self.horizon:
            self._check_round(t)
        if not 0 <= arm < self.num_arms:
            raise IndexError(f"arm index {arm} out of range")
        if not math.isfinite(reward):
            raise ValueError(f"rewards must be finite, got {reward}")
        reward = float(reward)
        counts, sums = self._counts, self._sums
        if not counts[arm]:
            self._empty -= 1
        counts[arm] += 1
        sums[arm] += reward
        self._rounds_done = t
        if t <= self.window:
            self._ring.append((arm, reward))
        else:
            slot = (t - 1) % self.window
            old_arm, old_reward = self._ring[slot]
            self._ring[slot] = (arm, reward)
            counts[old_arm] -= 1
            sums[old_arm] -= old_reward
            if not counts[old_arm]:
                self._empty += 1
            if old_arm != arm:
                self._refresh(old_arm)
        self._refresh(arm)


class BetaSlidingWindowTS(Policy):
    """Thompson sampling with Beta(S+1, N-S+1) posteriors on the windowed
    success counts; accepts binary rewards only.

    One posterior sample per arm every round past the forced-exploration
    phase; arms with an empty window simply sample from the flat Beta(1,1).
    """

    pulls_empty_arms = False
    binary_rewards = True

    def __init__(self, *args):
        super().__init__(*args)
        if self.num_arms > _LIST_ARMS:
            # p and q interleaved, so one standard_gamma call draws Ga then
            # Gb arm by arm, as rng.beta(p, q) does
            self._pq = np.ones(2 * self.num_arms)
            self._p, self._q = self._pq[0::2], self._pq[1::2]

    def _index(self, t: int) -> list:
        if self.num_arms <= _LIST_ARMS:
            return list(map(self.rng.beta, self._p, self._q))
        if self._empty:  # numpy draws Beta(1, 1) by Johnk's method, not from gammas
            return self.rng.beta(self._p, self._q).tolist()
        # rng.beta's own Ga / (Ga + Gb), since p > 1 or q > 1 for every arm
        g = self.rng.standard_gamma(self._pq)
        ga = g[0::2]
        return (ga / (ga + g[1::2])).tolist()

    def _refresh(self, arm: int) -> None:
        s = self._sums[arm]
        self._p[arm] = s + 1.0
        self._q[arm] = self._counts[arm] - s + 1.0


class GaussianSlidingWindowTS(Policy):
    """Thompson sampling with Normal(S/N, 1/(scale*N)) posteriors on the
    windowed statistics, scale = ``precision_scale``."""

    def _index(self, t: int) -> list:
        # bit-identical to rng.normal(means, scales) at a fraction of its cost
        noise = self.rng.standard_normal(self.num_arms)
        if self.num_arms <= _LIST_ARMS:
            return [p + q * z for p, q, z in zip(self._p, self._q, noise.tolist())]
        return (self._p + self._q * noise).tolist()

    def _refresh(self, arm: int) -> None:
        n = self._counts[arm]
        if n:  # an empty window is pulled outright, its inputs never read
            self._p[arm] = self._sums[arm] / n
            self._q[arm] = math.sqrt(1.0 / (self.param * n))


class SlidingWindowUCB(Policy):
    """Optimistic index on windowed statistics:
    mean + sqrt(xi * log(min(t, window)) / N).

    UCB1 is this index with xi = ucb_alpha; over its default full-horizon
    window the statistics are the lifetime ones and the bonus is
    sqrt(alpha * log(t) / N).  For ``sw_ucb`` xi is ``sw_xi``.  A window
    shorter than the horizon makes a :class:`KeptIndexUCB` instead.
    """

    def _index(self, t: int) -> list:
        xi_log = self.param * math.log(min(t, self.window))
        if self.num_arms <= _LIST_ARMS:
            return [p + math.sqrt(xi_log / n) for p, n in zip(self._p, self._q)]
        return (self._p + np.sqrt(xi_log / self._q)).tolist()

    def _refresh(self, arm: int) -> None:
        n = self._counts[arm]
        if n:  # an empty window is pulled outright, its inputs never read
            self._p[arm] = self._sums[arm] / n
            self._q[arm] = n


class KeptIndexUCB(SlidingWindowUCB):
    """The UCB index over a window shorter than the horizon.  Past round
    ``window`` its bonus log(min(t, window)) is fixed, so the first index
    computed then is kept and ``_refresh`` recomputes only the pulled and
    the evicted arm's entry, with the IEEE operations of the formula.  A
    full-horizon window (UCB1's default) never gets there."""

    def __init__(self, *args):
        super().__init__(*args)
        self._kept = None

    def _index(self, t: int) -> list:
        if self._kept is not None:
            return self._kept
        values = super()._index(t)
        if t > self.window:
            self._xi_log, self._kept = self.param * math.log(self.window), values
        return values

    def _refresh(self, arm: int) -> None:
        # the base's refresh written out: a super() call would cost every update
        n = self._counts[arm]
        if n:
            mean = self._sums[arm] / n
            if self._kept is None:
                self._p[arm] = mean
                self._q[arm] = n
            else:
                self._kept[arm] = mean + math.sqrt(self._xi_log / n)


class _Kind(NamedTuple):
    """A policy kind: its class, the one PolicyConfig field it reads (or
    None), that field's default from the laws of every arm, and its window
    for a horizon when the config leaves the window unset."""

    cls: type[Policy]
    param: str | None
    default: Callable[[tuple[RewardLaw, ...]], float] | None
    default_window: Callable[[int], int]


def _full_horizon(horizon: int) -> int:
    return horizon


# every policy kind: a new kind is one row here plus ``_index`` and ``_refresh``
_KINDS = {
    "beta_swts": _Kind(BetaSlidingWindowTS, None, None, _full_horizon),
    "gauss_swgts": _Kind(
        GaussianSlidingWindowTS,
        "precision_scale",
        # from the largest variance proxy
        lambda laws: min((default_precision_scale(lw) for lw in laws), default=1.0),
        _full_horizon,
    ),
    "ucb1": _Kind(SlidingWindowUCB, "ucb_alpha", lambda laws: 2.0, _full_horizon),
    "sw_ucb": _Kind(SlidingWindowUCB, "sw_xi", lambda laws: 0.6, default_sw_window),
}
POLICY_KINDS = tuple(_KINDS)
_PARAMS = tuple(row.param for row in _KINDS.values() if row.param is not None)


def make_policy(
    config: PolicyConfig,
    num_arms: int,
    horizon: int,
    rng: np.random.Generator,
    law: RewardLaw | Sequence[RewardLaw] | None = None,
) -> Policy:
    """Instantiate a policy from its configuration, resolved for
    ``horizon`` and ``law`` (one law, or the laws of every arm) by
    :meth:`PolicyConfig.resolve`."""
    config = config.resolve(horizon, law)
    cls = _KINDS[config.kind].cls
    if cls is SlidingWindowUCB and config.window < horizon:
        cls = KeptIndexUCB
    return cls(config, num_arms, horizon, rng)
