"""Exact expected pseudo-regret of the full-window policies on two-arm
Bernoulli instances, by dynamic programming over the policy's state.

With a full window a policy's statistics are its lifetime pull and success
counts, so before round t its state is (n0, s0, s1), with n1 = t - 1 - n0.
The chance of pulling arm 0 from a state follows each kind's rule as the
README states it, re-derived here without importing ``srrb.policies``:

- in the forced phase (t <= 2 * forced), the round-robin arm (t - 1) % 2
- ``ucb1`` and ``gauss_swgts``: the lowest arm with no pull, if any
- ``ucb1``: the larger index S/N + sqrt(alpha log(t) / N), computed with
  the same float operations as the policy, and 1/2 on an exact tie
- ``gauss_swgts``: P(N(m0, v0) > N(m1, v1)) with m = S/N and
  v = 1 / (precision N), that is Phi((m0 - m1) / sqrt(v0 + v1))
- ``beta_swts``: P(Beta(a0, b0) > Beta(a1, b1)) with a = S + 1 and
  b = N - S + 1, by E. Miller's finite sum of Beta functions
  ("Formulas for Bayesian A/B testing", 2015)

The n-th pull of arm i pays 1 with probability mu_i(n), read from the
instance's table, and the round's regret is mu*(t) - mu_i(n), with mu* the
optimal arm's curve, as in ``srrb.analytics.pseudo_regret``.  Only
``math`` is used, so every probability is a closed form.
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


def ucb_index(successes: int, pulls: int, alpha: float, t: int) -> float:
    """The UCB1 index of an arm at round t with the policy's float steps."""
    return successes / pulls + math.sqrt(alpha * math.log(t) / pulls)


def choose_first(kind: str, t: int, forced: int, n0: int, s0: int, s1: int, param: float) -> float:
    """Chance of pulling arm 0 at round t from state (n0, s0, s1); ``param``
    is the Gaussian precision or the UCB alpha (unused for Beta)."""
    n1 = t - 1 - n0
    if t <= 2 * forced:
        return 1.0 if (t - 1) % 2 == 0 else 0.0
    if kind == "beta_swts":
        return beta_beats(s0 + 1, n0 - s0 + 1, s1 + 1, n1 - s1 + 1)
    if n0 == 0:
        return 1.0
    if n1 == 0:
        return 0.0
    if kind == "gauss_swgts":
        return normal_beats(s0 / n0, 1.0 / (param * n0), s1 / n1, 1.0 / (param * n1))
    if kind == "ucb1":
        i0, i1 = ucb_index(s0, n0, param, t), ucb_index(s1, n1, param, t)
        return 1.0 if i0 > i1 else 0.0 if i0 < i1 else 0.5
    raise ValueError(f"no exact rule for {kind!r}")


def expected_regret(instance, kind: str, forced: int = 0, param: float = 0.0) -> float:
    """Expected pseudo-regret at the horizon of a two-arm Bernoulli
    ``instance`` under a full-window policy of ``kind``."""
    if instance.num_arms != 2:
        raise ValueError("the exact oracle covers two arms")
    means = [instance.expected_rewards(i).tolist() for i in range(2)]
    best = means[instance.optimal_arm]
    states = {(0, 0, 0): 1.0}
    regret = []
    for t in range(1, instance.horizon + 1):
        after: dict[tuple[int, int, int], float] = {}
        for (n0, s0, s1), mass in states.items():
            first = choose_first(kind, t, forced, n0, s0, s1, param)
            for arm, chance in ((0, first), (1, 1.0 - first)):
                if chance == 0.0:
                    continue
                pulls = n0 if arm == 0 else t - 1 - n0
                mu = means[arm][pulls]  # the arm's (pulls + 1)-th mean
                weight = mass * chance
                regret.append(weight * (best[t - 1] - mu))
                win = (n0 + (arm == 0), s0 + (arm == 0), s1 + (arm == 1))
                lose = (n0 + (arm == 0), s0, s1)
                after[win] = after.get(win, 0.0) + weight * mu
                after[lose] = after.get(lose, 0.0) + weight * (1.0 - mu)
        states = after
    return math.fsum(regret)
