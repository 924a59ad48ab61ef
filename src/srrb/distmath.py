"""Distribution numerics for Bernoulli/Beta posteriors and Poisson-Binomial laws.

Everything here is a pure function of its inputs.  The binomial CDF and
pmf are computed with a term recurrence anchored at the mode (no
incomplete-beta machinery); for the pmf the recurrence runs as a
sequential numpy cumulative product.  One function, ``_anchors``, chooses
between a float and an exact integer anchor; ``binomial_pmfs`` walks the
trial count upward and carries the exact anchor from one count to the
next, which is how the total-variation term of the pull bounds gets its
reference pmfs.  One prefix walk, ``_pb_prefix_pmfs``, runs the O(n^2)
Poisson-Binomial convolution, and the Beta tail uses the discrete
Beta-Binomial identity, so all routines stay in elementary arithmetic.
The inverse-tail expectation, like the TV distance, takes its law as a
pmf, so a caller builds each pmf once and reads it at many thresholds.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "bernoulli_kl",
    "binomial_pmf",
    "binomial_pmfs",
    "binomial_cdf",
    "beta_tail",
    "pb_pmf",
    "tv_distance",
    "roos_tv_bound",
    "expected_inverse_tail",
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


def _dyadic(p: float) -> tuple[int, int, int]:
    """Integers ip, iq and e with p = ip * 2^e and 1 - p = iq * 2^e exactly."""
    frac = Fraction(p)
    ip, e = frac.numerator, -(frac.denominator.bit_length() - 1)
    return ip, (1 << -e) - ip, e


def _round_scaled(num: int, exp2: int) -> float:
    """num * 2^exp2 as a float: keep 64 leading bits, then scale back."""
    shift = max(num.bit_length() - 64, 0)
    return math.ldexp(num >> shift, shift + exp2)


def _anchors(
    p: float, ns: Iterable[int], k: int | None = None
) -> Iterator[tuple[int, int, float]]:
    """(n, s, C(n,s) p^s (1-p)^(n-s)) for each n of ``ns``, 0 < p < 1, at
    the mode s of Binomial(n, p), or at k where k is below the mode.

    Float arithmetic is used where it is safe: C(n,s) representable and no
    underflow in the powers.  Elsewhere p = ip * 2^e and 1 - p = iq * 2^e
    exactly, so the value is the big integer C(n,s) ip^s iq^(n-s) times a
    power of two, and its final rounding to float is the only inexact
    step; that keeps the relative error of a whole CDF at recurrence-
    rounding level even for n = 1e5.  From a point (n - 1, s) to (n, s) or
    (n, s + 1) the integer is carried with one small-integer multiply and
    an exact divide instead of being rebuilt from the powers: the same
    integer either way.
    """
    dyadic = num = last = None  # last is the point (n, s) whose exact integer num is
    for n in ns:
        s = _binomial_mode(n, p) if k is None else min(_binomial_mode(n, p), k)
        if n <= 1000 and s * math.log(p) + (n - s) * math.log1p(-p) > -700.0:
            last = None
            yield n, s, math.comb(n, s) * math.pow(p, s) * math.pow(1.0 - p, n - s)
            continue
        if dyadic is None:
            dyadic = _dyadic(p)
        ip, iq, e = dyadic
        if last == (n - 1, s):  # C(n,s) = C(n-1,s) n / (n-s)
            num = num * (n * iq) // (n - s)
        elif last == (n - 1, s - 1):  # C(n,s) = C(n-1,s-1) n / s
            num = num * (n * ip) // s
        else:
            num = math.comb(n, s) * pow(ip, s) * pow(iq, n - s)
        last = (n, s)
        yield n, s, _round_scaled(num, e * n)


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
    _, anchor_s, anchor = next(_anchors(p, (n,), k))

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


def _degenerate_pmf(n: int, p: float) -> np.ndarray:
    """The pmf of Binomial(n, p) for p = 0 or p = 1: all mass on 0 or n."""
    out = np.zeros(n + 1)
    out[0 if p == 0.0 else n] = 1.0
    return out


def _pmf_from_anchor(n: int, p: float, mode: int, anchor: float) -> np.ndarray:
    """The pmf of Binomial(n, p), 0 < p < 1, from its value at the mode.

    The ratio recurrences run outward from the mode, where the terms only
    decay.  ``np.multiply.accumulate`` multiplies strictly in sequence, so
    each entry is the same product, in the same order, as a term-by-term
    loop's.
    """
    q = 1.0 - p
    # ratio pmf(s-1)/pmf(s) at s = mode .. 1, and pmf(s+1)/pmf(s) at s = mode .. n-1
    down = np.arange(mode, -1, -1, dtype=float)
    down[1:] = (down[:-1] * q) / ((n - down[:-1] + 1) * p)
    down[0] = anchor
    up = np.arange(mode - 1, n, dtype=float)
    up[1:] = ((n - up[1:]) * p) / ((up[1:] + 1) * q)
    up[0] = anchor
    out = np.empty(n + 1)
    out[mode::-1] = np.multiply.accumulate(down)
    out[mode:] = np.multiply.accumulate(up)
    return out


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """Full pmf vector of Binomial(n, p), length n + 1.

    The one-step view of :func:`binomial_pmfs`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return next(binomial_pmfs(p, n, n + 1))


def binomial_pmfs(p: float, start: int, stop: int) -> Iterator[np.ndarray]:
    """Full pmf vectors of Binomial(j, p) for j = start, ..., stop - 1, in
    that order.

    Each pmf's value at the mode is its anchor (as in
    :func:`binomial_cdf`); the other entries follow from it by the pmf
    ratio recurrences.  Successive modes differ by at most one, so an
    exact anchor is carried from j to j + 1.
    """
    if start < 0:
        raise ValueError("start must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        for j in range(start, stop):
            yield _degenerate_pmf(j, p)
        return
    for j, mode, anchor in _anchors(p, range(start, stop)):
        yield _pmf_from_anchor(j, p, mode, anchor)


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


def _pb_prefix_pmfs(probs: np.ndarray) -> Iterator[np.ndarray]:
    """Poisson-Binomial pmfs of the success count after the first 0, 1,
    ..., n of the success probabilities ``probs``: one convolution step
    per probability, O(n^2) in all.

    Each pmf is a view of one buffer that the next step overwrites.
    """
    pmf = np.zeros(probs.size + 1)
    pmf[0] = 1.0
    yield pmf[:1]
    for m, pi in enumerate(probs):
        head = pmf[: m + 1].copy()
        pmf[: m + 1] *= 1.0 - pi
        pmf[1 : m + 2] += head * pi
        yield pmf[: m + 2]


def pb_pmf(probs: Sequence[float]) -> np.ndarray:
    """Poisson-Binomial pmf: the last prefix of :func:`_pb_prefix_pmfs`.

    The result has length ``len(probs) + 1`` and is renormalized only if
    floating-point drift exceeds 1e-13.
    """
    p = np.asarray(probs, dtype=float)
    n = p.size
    if n > PB_MAX_LEN:
        raise ValueError(f"at most {PB_MAX_LEN} success probabilities supported, got {n}")
    if n and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("success probabilities must lie in [0, 1]")
    *_, pmf = _pb_prefix_pmfs(p)
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


@functools.lru_cache(maxsize=256)
def _cdf_column(trials: int, p: float) -> np.ndarray:
    """Read-only vector of binomial_cdf(trials, p, s) for s = 0 .. trials - 1."""
    cdf = np.array([binomial_cdf(trials, p, s) for s in range(trials)])
    cdf.setflags(write=False)
    return cdf


def expected_inverse_tail(pmf: Sequence[float], threshold: float) -> float:
    """E[1 / P(Beta(S+1, j-S+1) > y)] for S with the given pmf on 0 .. j,
    by exact enumeration over S.

    The Beta tail equals the binomial CDF F_{j+1,y}(S), so the summand is
    pmf(S) / F_{j+1,y}(S).  The pmf comes from :func:`binomial_pmf` or
    :func:`pb_pmf`, which check the success probabilities.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    pmf = np.asarray(pmf, dtype=float)
    j = pmf.size - 1
    if not 0 <= j <= 30:
        raise ValueError("exact enumeration supported for pmfs of 1 to 31 entries")
    return math.fsum(pmf / _cdf_column(j + 1, threshold))
