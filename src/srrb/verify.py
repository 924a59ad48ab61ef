"""Desk-scale verification suites behind the ``verify`` command.

Each suite checks a family of distributional facts the analysis relies on
against an independent oracle: exact enumeration for the expectation
inequalities, Gauss-Legendre quadrature for the discrete Beta tail
identity, and prefix-count recounts for the sliding-window bookkeeping.
The checks import the ``distmath`` kernels they call when they run, so
the windows suite never loads ``srrb.distmath``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CheckResult",
    "SuiteResult",
    "identities_suite",
    "lemmas_suite",
    "windows_suite",
    "run_suites",
    "SUITES",
]


# The suites' fixed inputs; only their sizes are parameters.
_LEMMAS_SEED = 2024_06
_WINDOWS_SEED = 77
_WINDOWS_ARMS = 5
_WINDOWS_HORIZON = 2000
_WINDOWS = (1, 7, 64, 2000)
# (alpha, beta) pairs the identities suite's quadrature oracle holds at
# once, at 19 thresholds and 64 nodes each.
_QUADRATURE_PAIRS = 25
# Rounds of recount rows the windows suite reads as Python lists at once.
_WINDOWS_CHUNK = 250


def _exceeds(value: float, worst: float) -> bool:
    """Whether ``value`` replaces ``worst`` as the worst so far: it is
    larger, or it is the first NaN (a NaN then stays the worst)."""
    return value > worst or (math.isnan(value) and not math.isnan(worst))


@dataclass
class CheckResult:
    name: str
    worst: float  # worst residual/margin observed (sign convention per check)
    threshold: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.worst <= self.threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: worst={self.worst:.3e} (threshold {self.threshold:.1e}) {self.detail}"


@dataclass
class SuiteResult:
    name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the 64-point Gauss-Legendre rule on [-1, 1],
    built on first use: only the identities suite needs numpy.polynomial.
    Read-only, as every call shares them."""
    rule = np.polynomial.legendre.leggauss(64)
    for array in rule:
        array.setflags(write=False)
    return rule


def _beta_tail_quadrature(alphas: np.ndarray, betas: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """P(Beta(alpha, beta) > y) by Gauss-Legendre quadrature: entry [i, j]
    for the pair (alphas[i], betas[i]) and the threshold ys[j].

    The density is a polynomial of degree alpha + beta - 2, so a 64-node
    rule on [y, 1] is exact up to rounding for alpha + beta <= 128.
    """
    nodes, weights = _gauss_legendre()
    half = 0.5 * (1.0 - ys)[:, None]
    x = half * (nodes + 1.0) + ys[:, None]
    w = half * weights
    log_norm = np.array([math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                         for a, b in zip(alphas.tolist(), betas.tolist())])
    dens = (alphas - 1)[:, None, None] * np.log(x)
    dens += log_norm[:, None, None]
    dens += (betas - 1)[:, None, None] * np.log1p(-x)
    np.exp(dens, out=dens)
    dens *= w
    return dens.sum(axis=2)


def identities_suite() -> SuiteResult:
    """Discrete Beta tail against continuous quadrature, plus the binomial
    edge identities."""
    from .distmath import beta_tail, binomial_cdf
    suite = SuiteResult("identities")

    ys = np.arange(0.05, 0.951, 0.05)
    alphas, betas = np.repeat(np.arange(1, 51), 50), np.tile(np.arange(1, 51), 50)
    oracle = np.concatenate([_beta_tail_quadrature(alphas[q : q + _QUADRATURE_PAIRS],
                                                   betas[q : q + _QUADRATURE_PAIRS], ys)
                             for q in range(0, alphas.size, _QUADRATURE_PAIRS)])
    res = np.abs(beta_tail(alphas[:, None], betas[:, None], ys) - oracle)
    # the worst is the first strict maximum (or the first NaN) in the order
    # (alpha, beta, y)
    at = int(np.argmax(res))
    worst, (i, j) = float(res.flat[at]), divmod(at, ys.size)
    worst_at = f"alpha={alphas[i]} beta={betas[i]} y={ys[j]:.2f}" if _exceeds(worst, 0.0) else ""
    suite.checks.append(
        CheckResult(
            "beta-tail identity vs quadrature",
            worst,
            1e-10,
            f"at {worst_at}",
        )
    )

    trials = np.arange(1, 41)[:, None]
    ys = np.array([0.1, 0.35, 0.6, 0.9])
    # the closed form in Python float arithmetic, as the scalar check had it
    closed = np.array([[(1.0 - y) ** j for y in ys.tolist()] for j in trials[:, 0].tolist()])
    worst = float(np.max(np.abs(binomial_cdf(trials, ys, 0) - closed)))
    suite.checks.append(
        CheckResult("binomial cdf at zero equals (1-y)^(j+1)", worst, 1e-13)
    )
    return suite


def _lemma_chain_check(rng: np.random.Generator, vectors_per_j: int = 200) -> CheckResult:
    """E[1/tail] ordering: Poisson-Binomial below the mean-matched binomial,
    itself below every binomial with smaller success probability.

    Exact enumeration over all success counts; violations measured in
    relative terms.  Each draw's pmfs are built once and read at every
    threshold.
    """
    from .distmath import binomial_pmf, expected_inverse_tail, pb_pmf
    worst = -math.inf
    worst_at = ""
    ys = np.arange(0.1, 0.91, 0.1)
    fracs = (0.75, 0.5, 0.25, 0.05)
    for j in range(1, 11):
        for _ in range(vectors_per_j):
            probs = rng.uniform(0.02, 0.98, size=j)
            mean = float(probs.mean())
            pb = pb_pmf(probs)
            mean_pmf = binomial_pmf(j, mean)
            frac_pmfs = [binomial_pmf(j, frac * mean) for frac in fracs]
            for y in ys:
                e_pb = expected_inverse_tail(pb, float(y))
                e_mean = expected_inverse_tail(mean_pmf, float(y))
                rel = (e_pb - e_mean) / e_mean
                if _exceeds(rel, worst):
                    worst, worst_at = rel, f"j={j} y={y:.1f} (pb vs mean)"
                prev = e_mean
                for frac, pmf in zip(fracs, frac_pmfs):
                    e_x = expected_inverse_tail(pmf, float(y))
                    rel = (prev - e_x) / e_x
                    if _exceeds(rel, worst):
                        worst, worst_at = rel, f"j={j} y={y:.1f} x={frac:.2f}*mean"
                    prev = e_x
    return CheckResult(
        "inverse-tail expectation ordering (exact enumeration)",
        worst,
        1e-9,
        f"worst margin at {worst_at}",
    )


def _roos_dominance_check(rng: np.random.Generator, cases: int = 500) -> CheckResult:
    """The order-0 Krawtchouk bound must dominate the exact TV distance."""
    from .distmath import binomial_pmf, pb_pmf, roos_tv_bound, tv_distance
    worst = -math.inf
    for _ in range(cases):
        n = int(rng.integers(1, 13))
        probs = rng.uniform(0.05, 0.95, size=n)
        # the mean-matched reference needs n >= 2: with a single prob it
        # degenerates to comparing a distribution with itself
        if n >= 2 and rng.random() < 0.5:
            mu = float(probs.mean())
        else:
            mu = float(rng.uniform(0.05, 0.95))
        exact = tv_distance(pb_pmf(probs), binomial_pmf(n, mu))
        bound = roos_tv_bound(probs, mu)
        if _exceeds(exact - bound, worst):
            worst = exact - bound
    return CheckResult("TV bound dominates exact TV", worst, 0.0)


def _binomial_dominance_check() -> CheckResult:
    """First-order stochastic dominance of Binomial(n, p') over
    Binomial(n, p) for p' >= p, checked CDF-wise; plus CDF monotonicity in
    the trial count."""
    from .distmath import binomial_cdf
    ps = np.arange(0.05, 0.96, 0.15)[:, None]
    upper = np.triu(np.ones((ps.size, ps.size), dtype=bool))  # [i, j]: ps[j] >= ps[i]
    diffs = []
    for n in (1, 2, 5, 17, 40):
        cdf = binomial_cdf(n, ps, np.arange(-1, n + 1))  # [p, k] for k = -1 .. n
        # CDF is non-decreasing in the threshold
        diffs.append(cdf[:, :-1] - cdf[:, 1:])
        # larger p -> smaller CDF
        diffs.append((cdf[None, :, :] - cdf[:, None, :])[upper])
        for m in (n + 1, n + 3):
            # more trials and larger p -> smaller CDF, at k = 0 .. n
            more = binomial_cdf(m, ps, np.arange(0, n + 1))
            diffs.append((more[:, None, :] - cdf[None, :, 1:])[upper.T])
    worst = float(np.max(np.concatenate([diff.ravel() for diff in diffs]) - 1e-14))
    return CheckResult("binomial stochastic dominance (k, p and n)", worst, 0.0)


def _beta_ordering_check() -> CheckResult:
    """Beta tails grow with alpha and shrink with beta."""
    from .distmath import beta_tail
    alpha = np.arange(1, 30, 3)[:, None, None]
    beta = np.arange(1, 30, 3)[:, None]
    ys = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    base = beta_tail(alpha, beta, ys)
    worst = np.maximum(base - beta_tail(alpha + 1, beta, ys) - 1e-14,
                       beta_tail(alpha, beta + 1, ys) - base - 1e-14)
    return CheckResult("beta tail ordering in alpha/beta", float(np.max(worst)), 0.0)


def lemmas_suite(vectors_per_j: int = 200, roos_cases: int = 500) -> SuiteResult:
    suite = SuiteResult("lemmas")
    rng = np.random.default_rng(_LEMMAS_SEED)
    suite.checks.append(_lemma_chain_check(rng, vectors_per_j))
    suite.checks.append(_roos_dominance_check(rng, roos_cases))
    suite.checks.append(_binomial_dominance_check())
    suite.checks.append(_beta_ordering_check())
    return suite


def recount_window_stats(pulls, rewards, num_arms: int, window: int):
    """Independent recount of windowed counts and sums for every round.

    Returns (counts, sums) of shape (T+1, K): row t holds the statistics
    visible when round t+1 is selected, i.e. over rounds
    [max(t+1-window, 1), t].  Built from one-hot prefix sums of the full
    history, entirely outside the policy code.
    """
    pulls = np.asarray(pulls)
    rewards = np.asarray(rewards, dtype=float)
    horizon = pulls.size
    one_hot = np.zeros((horizon + 1, num_arms))
    one_hot[np.arange(1, horizon + 1), pulls] = 1.0
    gains = np.zeros((horizon + 1, num_arms))
    gains[np.arange(1, horizon + 1), pulls] = rewards
    count_prefix = one_hot.cumsum(axis=0)
    gain_prefix = gains.cumsum(axis=0)
    t = np.arange(horizon + 1)
    lo = np.maximum(t - window, 0)
    counts = count_prefix[t] - count_prefix[lo]
    sums = gain_prefix[t] - gain_prefix[lo]
    return counts.astype(np.int64), sums


def windows_suite(traces: int = 100) -> SuiteResult:
    """Replay random traces through each windowed policy and demand exact
    agreement between its internal statistics and the recount.

    Rewards are random multiples of 1/1024 so that float accumulation is
    exact and equality is meaningful bit for bit.
    """
    from .policies import PolicyConfig, make_policy

    suite = SuiteResult("windows")
    num_arms, horizon = _WINDOWS_ARMS, _WINDOWS_HORIZON
    rng = np.random.default_rng(_WINDOWS_SEED)
    mismatches = 0
    checked = 0
    for trace in range(traces):
        window = _WINDOWS[trace % len(_WINDOWS)]
        pulls = rng.integers(0, num_arms, size=horizon)
        binary = rng.integers(0, 2, size=horizon).astype(float)
        dyadic = rng.integers(0, 1025, size=horizon) / 1024.0
        kind = ("beta_swts", "gauss_swgts", "sw_ucb")[trace % 3]
        rewards = binary if kind == "beta_swts" else dyadic
        policy = make_policy(
            PolicyConfig(kind=kind, window=window),
            num_arms,
            horizon,
            np.random.default_rng(_WINDOWS_SEED + trace),
        )
        counts_oracle, sums_oracle = recount_window_stats(pulls, rewards, num_arms, window)
        # the live lists after round t against recount row t, read as lists
        # a chunk of rounds at a time
        live_counts, live_sums = policy.window_lists()
        pulls, rewards = pulls.tolist(), rewards.tolist()
        for lo in range(0, horizon, _WINDOWS_CHUNK):
            hi = lo + _WINDOWS_CHUNK
            for t, arm, reward, counts, sums in zip(
                range(lo + 1, hi + 1), pulls[lo:hi], rewards[lo:hi],
                counts_oracle[lo + 1 : hi + 1].tolist(), sums_oracle[lo + 1 : hi + 1].tolist(),
            ):
                policy.update(arm, reward, t)
                if live_counts != counts or live_sums != sums:
                    mismatches += 1
        checked += horizon
    suite.checks.append(
        CheckResult(
            "window statistics equal recounts",
            float(mismatches),
            0.0,
            f"{checked} round-level comparisons",
        )
    )
    return suite


SUITES = {
    "identities": identities_suite,
    "lemmas": lemmas_suite,
    "windows": windows_suite,
}


def run_suites(names) -> list[SuiteResult]:
    out = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; options: {sorted(SUITES)} or 'all'")
        out.append(SUITES[name]())
    return out
