"""Exact expected pseudo-regret of the sliding-window policies on two-arm
instances, by dynamic programming over the policy's state.

Before round t a policy's state is n0, the lifetime pulls of arm 0 (arm 1
has t - 1 - n0), and its window: the (arm, reward) pulls of the last
``window`` rounds, oldest first.  A round appends its pull and, once the
window is full, evicts the oldest.  With a full window nothing is ever
evicted, so the order of the pulls does not matter and the window is kept
sorted: for Bernoulli rewards it then reduces to the success counts
(s0, s1), and for deterministic rewards to n0 alone.  The arms' laws are
Bernoulli, whose n-th pull of arm i pays 1 with probability mu_i(n), or
bounded-uniform of half width 0, whose n-th pull pays mu_i(n) itself.

The chance of pulling arm 0 from a state follows each kind's rule as the
README states it, re-derived here without importing ``srrb.policies``,
with N and S the window's pull count and reward sum of an arm:

- in the forced phase (t <= 2 * forced), the round-robin arm (t - 1) % 2
- ``ucb1``, ``sw_ucb`` and ``gauss_swgts``: the lowest arm with no pull
  in the window, if any
- ``ucb1`` and ``sw_ucb``: the larger index
  S/N + sqrt(xi log(min(t, window)) / N), computed with the same float
  operations as the policy, and 1/2 on an exact tie
- ``gauss_swgts``: P(N(m0, v0) > N(m1, v1)) with m = S/N and
  v = 1 / (precision N), that is Phi((m0 - m1) / sqrt(v0 + v1))
- ``beta_swts``: P(Beta(a0, b0) > Beta(a1, b1)) with a = S + 1 and
  b = N - S + 1, by E. Miller's finite sum of Beta functions
  ("Formulas for Bayesian A/B testing", 2015)

S adds an arm's window rewards oldest first, as the policy's running sum
does (exact for Bernoulli rewards, and the policy's own bits for a full
window).  Means are read from the instance's table, and the round's
regret is mu*(t) - mu_i(n), with mu* the optimal arm's curve, as
``srrb.harness.run_single`` sums it.  Only ``math`` is used, so every
probability is a closed form.
"""

from __future__ import annotations

import functools
import math


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


@functools.lru_cache(maxsize=1 << 12)
def beta_beats(a0: int, b0: int, a1: int, b1: int) -> float:
    """P(X0 > X1) for independent X0 ~ Beta(a0, b0), X1 ~ Beta(a1, b1),
    positive integer parameters: Miller's sum over i < a0 of
    B(a1 + i, b1 + b0) / ((b0 + i) B(1 + i, b0) B(a1, b1))."""
    base = _log_beta(a1, b1)
    return math.fsum(
        math.exp(_log_beta(a1 + i, b1 + b0) - math.log(b0 + i) - _log_beta(1 + i, b0) - base)
        for i in range(a0)
    )


def normal_beats(m0: float, v0: float, m1: float, v1: float) -> float:
    """P(N(m0, v0) > N(m1, v1)) for independent normals (v the variances)."""
    return 0.5 * math.erfc(-(m0 - m1) / math.sqrt(2.0 * (v0 + v1)))


def ucb_index(total: float, pulls: int, xi: float, t: int, window: int) -> float:
    """The UCB index of an arm at round t with the policy's float steps."""
    return total / pulls + math.sqrt(xi * math.log(min(t, window)) / pulls)


def window_stats(pulls) -> tuple[int, float, int, float]:
    """(N0, S0, N1, S1) of a window of (arm, reward) pulls, oldest first."""
    counts, sums = [0, 0], [0, 0]
    for arm, reward in pulls:
        counts[arm] += 1
        sums[arm] += reward
    return counts[0], sums[0], counts[1], sums[1]


def choose_first(kind: str, t: int, forced: int, stats, param: float, window: int) -> float:
    """Chance of pulling arm 0 at round t from the window's ``stats``
    (N0, S0, N1, S1); ``param`` is the Gaussian precision or the UCB xi
    (unused for Beta)."""
    if t <= 2 * forced:
        return 1.0 if (t - 1) % 2 == 0 else 0.0
    n0, s0, n1, s1 = stats
    if kind == "beta_swts":
        return beta_beats(s0 + 1, n0 - s0 + 1, s1 + 1, n1 - s1 + 1)
    if n0 == 0:
        return 1.0
    if n1 == 0:
        return 0.0
    if kind == "gauss_swgts":
        return normal_beats(s0 / n0, 1.0 / (param * n0), s1 / n1, 1.0 / (param * n1))
    if kind in ("ucb1", "sw_ucb"):
        i0, i1 = ucb_index(s0, n0, param, t, window), ucb_index(s1, n1, param, t, window)
        return 1.0 if i0 > i1 else 0.0 if i0 < i1 else 0.5
    raise ValueError(f"no exact rule for {kind!r}")


def _outcomes(law, mu: float):
    """(reward, chance) of a pull at mean ``mu`` under ``law``."""
    if law.kind == "bernoulli":
        return ((1, mu), (0, 1.0 - mu))
    if law.kind == "bounded_uniform" and law.half_width == 0.0:
        return ((mu, 1.0),)
    raise ValueError(f"no exact rule for the {law.kind} law {law}")


def expected_regret(
    instance, kind: str, forced: int = 0, param: float = 0.0, window: int | None = None
) -> float:
    """Expected pseudo-regret at the horizon of a two-arm ``instance``
    under a policy of ``kind`` whose window is ``window`` rounds (None for
    the horizon)."""
    if instance.num_arms != 2:
        raise ValueError("the exact oracle covers two arms")
    horizon = instance.horizon
    window = horizon if window is None else window
    means = [instance.expected_rewards(i).tolist() for i in range(2)]
    laws = [arm.law for arm in instance.arms]
    best = means[instance.optimal_arm]
    states = {(0, ()): 1.0}
    regret = []
    for t in range(1, horizon + 1):
        after: dict[tuple, float] = {}
        for (n0, pulls), mass in states.items():
            first = choose_first(kind, t, forced, window_stats(pulls), param, window)
            for arm, chance in ((0, first), (1, 1.0 - first)):
                if chance == 0.0:
                    continue
                mu = means[arm][n0 if arm == 0 else t - 1 - n0]  # the arm's next mean
                weight = mass * chance
                regret.append(weight * (best[t - 1] - mu))
                for reward, odds in _outcomes(laws[arm], mu):
                    kept = (*pulls, (arm, reward))
                    # a full window never evicts, so its order is immaterial
                    kept = tuple(sorted(kept)) if window >= horizon else kept[-window:]
                    key = (n0 + (arm == 0), kept)
                    after[key] = after.get(key, 0.0) + weight * odds
        states = after
    return math.fsum(regret)
