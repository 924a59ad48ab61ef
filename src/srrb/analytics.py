"""Instance-level analytics: gaps, complexity indices and the upper-bound
term calculators.

All quantities compare against the horizon-optimal arm.  In a rising
rested bandit the optimal arm is the same at every round, so anchoring on
the horizon is equivalent to the anytime notion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .instance import Instance

__all__ = [
    "gaps",
    "sigma_complexity",
    "SigmaReport",
    "windowed_sigma_complexity",
    "WindowedSigmaReport",
    "growth_index",
    "pull_bound_terms",
    "BoundTerms",
    "AnalysisReport",
    "build_report",
]


def gaps(instance: Instance, i: int, n: int, n_prime: int) -> tuple[float, float]:
    """Suboptimality gaps of arm i: pointwise and averaged.

    Returns (max(0, mu*(n) - mu_i(n')), max(0, avg*(n) - avg_i(n'))) where
    the star quantities belong to the optimal arm.  Clamping at zero is
    part of the definition.
    """
    star = instance.optimal_arm
    if i == star:
        raise ValueError("gaps are defined for suboptimal arms only")
    gap = max(0.0, instance.expected_reward(star, n) - instance.expected_reward(i, n_prime))
    avg_gap = max(
        0.0, instance.avg_expected_reward(star, n) - instance.avg_expected_reward(i, n_prime)
    )
    return gap, avg_gap


@dataclass(frozen=True)
class SigmaReport:
    """Pulls of the optimal arm needed to separate it from each suboptimal
    arm's horizon average (the complexity index)."""

    per_arm: dict[int, float]
    overall: float  # max over suboptimal arms; +inf if any arm is unseparated


def sigma_complexity(instance: Instance) -> SigmaReport:
    """Smallest l with avg*(l) > avg_i(T) for every suboptimal arm i.

    The average of a non-decreasing curve is non-decreasing, so the
    witness is located by binary search.  Uniqueness of the optimal arm
    guarantees l = T always works; the sentinel +inf is kept for safety
    and asserted unreachable.
    """
    star = instance.optimal_arm
    avg_star = instance.avg_expected_rewards(star)
    per_arm: dict[int, float] = {}
    for i in range(instance.num_arms):
        if i == star:
            continue
        target = instance.avg_expected_reward(i, instance.horizon)
        idx = int(np.searchsorted(avg_star, target, side="right"))
        if idx >= instance.horizon:
            per_arm[i] = math.inf
        else:
            per_arm[i] = idx + 1  # rounds are 1-based
    overall = max(per_arm.values(), default=1.0)
    assert math.isfinite(overall), "unique optimum guarantees separation at l = T"
    return SigmaReport(per_arm=per_arm, overall=overall)


@dataclass(frozen=True)
class WindowedSigmaReport:
    """Windowed analogue: smallest l >= tau with the optimal arm's windowed
    average above each suboptimal arm's final expected reward mu_i(T)."""

    tau: int
    per_arm_sigma: dict[int, float]  # +inf when no such l exists
    per_arm_gap: dict[int, float]  # windowed average at the witness minus mu_i(T)
    overall: float


def windowed_sigma_complexity(instance: Instance, tau: int) -> WindowedSigmaReport:
    if not 1 <= tau <= instance.horizon:
        raise ValueError(f"window must be in [1, {instance.horizon}], got {tau}")
    star = instance.optimal_arm
    win = instance.windowed_avg_expected_rewards(star, tau)  # l = tau .. T
    per_sigma: dict[int, float] = {}
    per_gap: dict[int, float] = {}
    for i in range(instance.num_arms):
        if i == star:
            continue
        target = instance.expected_reward(i, instance.horizon)
        idx = int(np.searchsorted(win, target, side="right"))
        if idx >= win.size:
            per_sigma[i] = math.inf
            per_gap[i] = math.nan
        else:
            per_sigma[i] = idx + tau
            per_gap[i] = float(win[idx] - target)
    overall = max(per_sigma.values(), default=float(tau))
    return WindowedSigmaReport(
        tau=tau, per_arm_sigma=per_sigma, per_arm_gap=per_gap, overall=overall
    )


def growth_index(instance: Instance, m: int, q: float) -> float:
    """Cumulative growth index: sum over l < m of the largest per-step
    increment across arms, raised to the power q, for 2 <= m <= T.

    The increments are read from the instance's table of mu_i(1..T).
    Convention 0**q = 0 for q > 0 (the limit from above) and 0**0 = 1, so
    stationary instances score 0 for every q > 0.
    """
    if not 2 <= m <= instance.horizon:
        raise ValueError(f"m must be in [2, {instance.horizon}], got {m}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    increments = np.zeros(m - 1)
    for i in range(instance.num_arms):
        np.maximum(increments, np.diff(instance.expected_rewards(i)[:m]), out=increments)
    increments = np.maximum(increments, 0.0)  # guard tiny negative rounding
    return float(np.power(increments, q).sum())


@dataclass(frozen=True)
class BoundTerms:
    """The three contributions to the expected-pull upper bound of one
    suboptimal arm: forced exploration, stationary sampling cost, and the
    cumulative total-variation dissimilarity."""

    flavor: str
    per_arm: dict[int, tuple[float, float, float]]
    tv_is_trivial: bool = False  # True when term iii used the worst-case TV of 1


def pull_bound_terms(
    instance: Instance,
    sigma: int,
    forced: int = 0,
    flavor: str = "beta",
    precision_scale: float = 1.0,
    eps: float = 1.0,
) -> BoundTerms:
    """Evaluate the three terms of the expected-pull bounds at a reference
    pull count ``sigma``.

    ``sigma`` must be at least the instance complexity index so that the
    optimal arm's average at sigma clears every suboptimal final average.
    For the Gaussian flavor the exact sample-mean total variation is only
    available for Bernoulli instances (success counts are Poisson-
    Binomial); otherwise the TV factor degrades to its trivial bound of 1
    and the result is flagged.
    """
    from .distmath import bernoulli_kl

    if flavor not in ("beta", "gauss"):
        raise ValueError(f"flavor must be 'beta' or 'gauss', got {flavor!r}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if not (math.isfinite(precision_scale) and precision_scale > 0.0):
        raise ValueError(f"precision_scale must be finite and positive, got {precision_scale}")
    report = sigma_complexity(instance)
    if sigma < report.overall or sigma > instance.horizon:
        raise ValueError(
            f"sigma must be in [{report.overall}, {instance.horizon}], got {sigma}"
        )
    if forced < 0:
        raise ValueError("forced must be >= 0")
    star = instance.optimal_arm
    horizon = instance.horizon
    is_bernoulli = all(arm.law.kind == "bernoulli" for arm in instance.arms)
    if flavor == "beta" and not is_bernoulli:
        raise ValueError("beta-flavor bound terms require a Bernoulli instance")

    y_ref = instance.avg_expected_reward(star, sigma)

    tv_trivial = flavor == "gauss" and not is_bernoulli
    term_iii = _tv_term(instance, sigma, forced, flavor, precision_scale, y_ref, tv_trivial)

    per_arm: dict[int, tuple[float, float, float]] = {}
    for i in range(instance.num_arms):
        if i == star:
            continue
        avg_i = instance.avg_expected_reward(i, horizon)
        if flavor == "beta":
            div = bernoulli_kl(avg_i, y_ref)
            term_ii = (1.0 + eps) * math.log(horizon) / div + 1.0 / eps**2
        else:
            gap = max(0.0, y_ref - avg_i)
            term_ii = math.log(horizon * gap**2 + math.exp(6.0)) / (precision_scale * gap**2)
        per_arm[i] = (float(forced), term_ii, term_iii)
    return BoundTerms(flavor=flavor, per_arm=per_arm, tv_is_trivial=tv_trivial)


def _tv_term(
    instance: Instance,
    sigma: int,
    forced: int,
    flavor: str,
    precision_scale: float,
    y_ref: float,
    tv_trivial: bool,
) -> float:
    """Sum over j = forced .. sigma-1 of TV dissimilarity over the measure
    change denominator.  j = 0 contributes nothing: both laws degenerate.

    The sum is ``inf`` as soon as one summand overflows a double.  The Beta
    flavor's factor (1 - y)^-(j+1) grows with j, so it checks its last
    summand, j = sigma - 1, first: if that one overflows, the walk up from
    j = start would end in ``inf`` too, and it is not taken.
    """
    from .distmath import _pb_prefix_pmfs, binomial_pmf, binomial_pmfs, tv_distance

    star = instance.optimal_arm
    total = 0.0
    log_one_minus = math.log1p(-y_ref) if y_ref < 1.0 else -math.inf
    start = max(forced, 1)
    # the law compared with binomial_pmf(j, y_ref) for j = start .. sigma-1
    if flavor == "beta":

        def beta_law(j):
            return binomial_pmf(j, instance.avg_expected_reward(star, j))

        def log_beta_term(j, tv):
            return math.log(tv) - (j + 1) * log_one_minus

        if start < sigma:
            # a fresh reference pmf has the bits of the one the walk carries
            tv = tv_distance(beta_law(sigma - 1), binomial_pmf(sigma - 1, y_ref))
            if tv > 0.0 and log_beta_term(sigma - 1, tv) > 709.0:
                return math.inf
        laws = map(beta_law, range(start, sigma))
    else:
        # success-count law of the optimal arm after j pulls
        walk = _pb_prefix_pmfs(instance.expected_rewards(star)[: sigma - 1])
        laws = itertools.islice(walk, start, None)
    references = binomial_pmfs(y_ref, start, sigma)
    for j in range(start, sigma):
        tv = 1.0 if tv_trivial else tv_distance(next(laws), next(references))
        if tv == 0.0:
            continue
        if flavor == "beta":
            log_term = log_beta_term(j, tv)
            if log_term > 709.0:
                return math.inf
            term = math.exp(log_term)
        else:
            den = math.erfc(math.sqrt(precision_scale * j / 2.0) * y_ref)
            if den == 0.0:
                return math.inf
            term = tv / den
        total += term
    return total


def _jsonable(x: float):
    """Strict-JSON encoding of extended reals: inf -> "inf", nan -> None."""
    if isinstance(x, float):
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
    return x


@dataclass
class AnalysisReport:
    """Bundle of instance analytics as emitted by the analyze command."""

    optimal_arm: int
    sigma: SigmaReport
    windowed: list[WindowedSigmaReport] = field(default_factory=list)
    gap_table: dict[int, dict[str, tuple[float, float]]] = field(default_factory=dict)
    growth: dict[float, float] = field(default_factory=dict)
    bound_terms: BoundTerms | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "optimal_arm": self.optimal_arm,
            "sigma": {str(k): _jsonable(v) for k, v in sorted(self.sigma.per_arm.items())},
            "sigma_max": _jsonable(self.sigma.overall),
            "windowed": [
                {
                    "tau": w.tau,
                    "sigma": {str(k): _jsonable(v) for k, v in sorted(w.per_arm_sigma.items())},
                    "gap": {str(k): _jsonable(w.per_arm_gap[k]) for k in sorted(w.per_arm_gap)},
                    "sigma_max": _jsonable(w.overall),
                }
                for w in self.windowed
            ],
            "gaps": {
                str(k): {name: list(pair) for name, pair in points.items()}
                for k, points in sorted(self.gap_table.items())
            },
            "growth_index": {str(q): v for q, v in sorted(self.growth.items())},
        }
        if self.bound_terms is not None:
            out["bound_terms"] = {
                "flavor": self.bound_terms.flavor,
                "tv_is_trivial": self.bound_terms.tv_is_trivial,
                "per_arm": {
                    str(k): [_jsonable(v) for v in terms]
                    for k, terms in sorted(self.bound_terms.per_arm.items())
                },
            }
        return out


# the exponents q of the growth index in every report
GROWTH_EXPONENTS = (0.25, 0.5, 0.75, 1.0)


def build_report(
    instance: Instance,
    tau_list=(),
    bound_sigma: int | None = None,
    bound_flavor: str = "beta",
    bound_forced: int = 0,
    bound_eps: float = 1.0,
    bound_precision_scale: float = 1.0,
) -> AnalysisReport:
    """Run the full analytics pass used by the command-line front end."""
    report = AnalysisReport(optimal_arm=instance.optimal_arm, sigma=sigma_complexity(instance))
    for tau in tau_list:
        report.windowed.append(windowed_sigma_complexity(instance, int(tau)))
    horizon = instance.horizon
    for i in range(instance.num_arms):
        if i == instance.optimal_arm:
            continue
        report.gap_table[i] = {
            "final": gaps(instance, i, horizon, horizon),
            "fresh": gaps(instance, i, horizon, 1),
        }
    if horizon >= 2:
        for q in GROWTH_EXPONENTS:
            report.growth[q] = growth_index(instance, horizon, q)
    if bound_sigma is not None:
        report.bound_terms = pull_bound_terms(
            instance,
            sigma=bound_sigma,
            forced=bound_forced,
            flavor=bound_flavor,
            precision_scale=bound_precision_scale,
            eps=bound_eps,
        )
    return report
