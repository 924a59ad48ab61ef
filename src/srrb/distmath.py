"""Distribution numerics for Bernoulli/Beta posteriors and Poisson-Binomial laws.

Everything here is a pure function of its inputs.  The binomial CDF is
computed with a term recurrence anchored at the mode (no incomplete-beta
machinery), the Poisson-Binomial pmf with the usual O(n^2) convolution,
and the Beta tail through the discrete Beta-Binomial identity, so all
routines stay in elementary arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "bernoulli_kl",
    "binomial_pmf",
    "binomial_cdf",
    "beta_tail",
    "pb_pmf",
    "tv_distance",
    "roos_tv_bound",
    "expected_inverse_tail_pb",
    "expected_inverse_tail_binomial",
]

PB_MAX_LEN = 4096

# Terms smaller than this (relative to the running total) cannot move the
# final double, so the CDF recurrence stops there.
_TERM_CUTOFF = 1e-22


def bernoulli_kl(x: float, y: float) -> float:
    """KL divergence between Bernoulli(x) and Bernoulli(y).

    Conventions: 0*log(0) = 0; if y is 0 or 1 and x != y the divergence
    is infinite.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"y must be in [0, 1], got {y}")
    if x == y:
        return 0.0
    if y == 0.0 or y == 1.0:
        return math.inf
    out = 0.0
    if x > 0.0:
        out += x * math.log(x / y)
    if x < 1.0:
        out += (1.0 - x) * math.log((1.0 - x) / (1.0 - y))
    return out


def _binomial_mode(n: int, p: float) -> int:
    mode = int(math.floor((n + 1) * p))
    return min(max(mode, 0), n)


def _exact_pmf_value(n: int, s: int, p: float) -> float:
    """C(n,s) p^s (1-p)^(n-s) evaluated in exact integer arithmetic.

    p is decomposed as ip * 2^e (exact for any float), 1 - p likewise, so
    the product is a big integer times a power of two; the final rounding
    to float is the only inexact step.  Exactness of this anchor keeps the
    relative error of the whole CDF at recurrence-rounding level even for
    n = 1e5.
    """
    frac = Fraction(p)
    ip, e = frac.numerator, -(frac.denominator.bit_length() - 1)
    iq = (1 << -e) - ip  # 1 - p as an integer at the same scale
    num = math.comb(n, s) * pow(ip, s) * pow(iq, n - s)
    if num == 0:
        return 0.0
    # round to float: keep 64 leading bits, then scale back
    shift = max(num.bit_length() - 64, 0)
    return math.ldexp(num >> shift, shift + e * n)


def _anchor_pmf(n: int, s: int, p: float) -> float:
    # Fast float path when C(n,s) is representable and the powers cannot
    # underflow; otherwise fall back to exact rationals.
    if n <= 1000:
        lo = s * math.log(p) + (n - s) * math.log1p(-p)
        if lo > -700.0:
            return math.comb(n, s) * math.pow(p, s) * math.pow(1.0 - p, n - s)
    return _exact_pmf_value(n, s, p)


def binomial_cdf(n: int, p: float, k: int) -> float:
    """P(X <= k) for X ~ Binomial(n, p), with k = -1 allowed (gives 0).

    Terms are generated by the pmf ratio recurrence moving away from the
    mode, where they only decay, and summed with ``math.fsum``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if k < -1 or k > n:
        raise ValueError(f"k must be in [-1, n], got {k}")
    if k == -1:
        return 0.0
    if k == n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0  # k < n here

    q = 1.0 - p
    anchor_s = min(_binomial_mode(n, p), k)
    anchor = _anchor_pmf(n, anchor_s, p)

    terms = [anchor]
    # downward from the anchor: ratio pmf(s-1)/pmf(s) = s q / ((n-s+1) p)
    t = anchor
    for s in range(anchor_s, 0, -1):
        t *= (s * q) / ((n - s + 1) * p)
        terms.append(t)
        if t < anchor * _TERM_CUTOFF:
            break
    # upward from the anchor to k (only entered when k is past the mode):
    # ratio pmf(s+1)/pmf(s) = (n-s) p / ((s+1) q)
    t = anchor
    for s in range(anchor_s, k):
        t *= ((n - s) * p) / ((s + 1) * q)
        terms.append(t)
        if t < anchor * _TERM_CUTOFF:
            break
    return min(math.fsum(terms), 1.0)


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """Full pmf vector of Binomial(n, p), length n + 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    out = np.zeros(n + 1)
    if p == 0.0:
        out[0] = 1.0
        return out
    if p == 1.0:
        out[n] = 1.0
        return out
    mode = _binomial_mode(n, p)
    anchor = _anchor_pmf(n, mode, p)
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


def beta_tail(alpha: int, beta: int, y: float) -> float:
    """P(Beta(alpha, beta) > y) for integer alpha, beta >= 1.

    Uses the discrete identity with the binomial CDF, so no continuous
    quadrature is involved.
    """
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be integers >= 1")
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"y must be in [0, 1], got {y}")
    return binomial_cdf(alpha + beta - 1, y, alpha - 1)


def pb_pmf(probs: Sequence[float]) -> np.ndarray:
    """Poisson-Binomial pmf via dynamic-programming convolution, O(n^2).

    The result has length ``len(probs) + 1`` and is renormalized only if
    floating-point drift exceeds 1e-13.
    """
    p = np.asarray(probs, dtype=float)
    n = p.size
    if n > PB_MAX_LEN:
        raise ValueError(f"at most {PB_MAX_LEN} success probabilities supported, got {n}")
    if n and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("success probabilities must lie in [0, 1]")
    pmf = np.zeros(n + 1)
    pmf[0] = 1.0
    for m, pi in enumerate(p):
        head = pmf[: m + 1].copy()
        pmf[: m + 1] *= 1.0 - pi
        pmf[1 : m + 2] += head * pi
    total = pmf.sum()
    if abs(total - 1.0) > 1e-13:
        pmf /= total
    return pmf


def tv_distance(pmf_a: Sequence[float], pmf_b: Sequence[float]) -> float:
    """Total variation distance between two discrete pmfs.

    Computed as half the L1 distance, which on a countable space equals
    the supremum of |P(A) - Q(A)| over events A.  The shorter vector is
    zero-padded.
    """
    a = np.asarray(pmf_a, dtype=float)
    b = np.asarray(pmf_b, dtype=float)
    if a.size < b.size:
        a = np.pad(a, (0, b.size - a.size))
    elif b.size < a.size:
        b = np.pad(b, (0, a.size - b.size))
    return float(np.abs(a - b).sum() / 2.0)


def roos_tv_bound(probs: Sequence[float], mu: float) -> float:
    """Krawtchouk-expansion bound (order 0) on the TV distance between a
    Poisson-Binomial and the binomial with matched trial count.

    Two branches depending on theta = eta / (2 n mu (1 - mu)) where
    eta = 2 * sum (mu - p_i)^2 + (sum (mu - p_i))^2.
    """
    p = np.asarray(probs, dtype=float)
    if p.size == 0:
        raise ValueError("probs must be non-empty")
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must be in (0, 1), got {mu}")
    if p.min() <= 0.0 or p.max() >= 1.0:
        raise ValueError("success probabilities must lie in (0, 1)")
    n = p.size
    diff = mu - p
    gamma1 = float(diff.sum())
    gamma2 = float((diff**2).sum())
    eta = 2.0 * gamma2 + gamma1**2
    theta = eta / (2.0 * n * mu * (1.0 - mu))
    if theta < 1.0:
        c1 = math.sqrt(math.e) / 2.0
        root = math.sqrt(theta)
        return c1 * root / (1.0 - root) ** 2
    c2 = (2.0 * math.pi) ** 0.25 * math.exp(1.0 / 24.0) / math.sqrt(2.0)
    return c2 * math.sqrt(eta) * (1.0 + math.sqrt(2.0 * eta)) * math.exp(2.0 * eta)


def _expected_inverse_tail(pmf: np.ndarray, j: int, threshold: float) -> float:
    cdf = np.array([binomial_cdf(j + 1, threshold, s) for s in range(j + 1)])
    return float(math.fsum(pmf[s] / cdf[s] for s in range(j + 1)))


def expected_inverse_tail_pb(probs: Sequence[float], threshold: float) -> float:
    """E[1 / P(Beta(S+1, j-S+1) > y)] with S Poisson-Binomial over the
    given success probabilities, by exact enumeration over S.

    The Beta tail equals the binomial CDF F_{j+1,y}(S), so the summand is
    pmf(S) / F_{j+1,y}(S).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    probs = tuple(float(v) for v in probs)
    j = len(probs)
    if j > 30:
        raise ValueError("exact enumeration supported for at most 30 pulls")
    return _expected_inverse_tail(pb_pmf(probs), j, threshold)


def expected_inverse_tail_binomial(j: int, x: float, threshold: float) -> float:
    """Same expectation as :func:`expected_inverse_tail_pb` with S
    Binomial(j, x)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if j < 0 or j > 30:
        raise ValueError("exact enumeration supported for 0 <= j <= 30")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    return _expected_inverse_tail(binomial_pmf(j, x), j, threshold)
