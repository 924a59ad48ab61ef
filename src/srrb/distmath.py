"""Distribution numerics for Bernoulli/Beta posteriors and Poisson-Binomial laws.

Everything here is a pure function of its inputs.  The binomial CDF and
pmf are computed with a term recurrence anchored at the mode (no
incomplete-beta machinery), run as sequential numpy cumulative products.
One function, ``_anchors``, chooses between a float and an exact integer
anchor; it carries the integer C(n, s) (times the integer powers, for an
exact anchor) from one point to the next by a multiply and an exact
divide, and reads the float powers from tables of ``math.pow`` values.
``binomial_cdf`` and ``beta_tail`` broadcast over their arguments, and a
scalar call is the one-element case of the same recurrence.  An array
call walks once per distinct (n, p) for all its elements at or above the
mode, each summing its share of the walk with ``math.fsum``; an element
below the mode walks from its own anchor.  ``binomial_pmfs`` walks the
trial count upward and carries the anchor from one count to the next,
which is how the total-variation term of the pull bounds gets its
reference pmfs.  One prefix walk, ``_pb_prefix_pmfs``, runs the O(n^2)
Poisson-Binomial convolution, and the Beta tail uses the discrete
Beta-Binomial identity, so all routines stay in elementary arithmetic.
The inverse-tail expectation, like the TV distance, takes its law as a
pmf, so a caller builds each pmf once and reads it at many thresholds.
"""

from __future__ import annotations

import functools
import math
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


def _binomial_mode(n, p):
    """The mode floor((n + 1) p) of Binomial(n, p), 0 < p < 1, clipped to n,
    as a float; n and p may be arrays."""
    mode = (n + 1) * p // 1
    return mode - (mode > n)


def _dyadic(p: float) -> tuple[int, int, int]:
    """Integers ip, iq and e with p = ip * 2^e and 1 - p = iq * 2^e exactly."""
    ip, den = p.as_integer_ratio()
    e = -(den.bit_length() - 1)
    return ip, (1 << -e) - ip, e


def _round_scaled(num: int, exp2: int) -> float:
    """num * 2^exp2 as a float: keep 64 leading bits, then scale back."""
    shift = max(num.bit_length() - 64, 0)
    return math.ldexp(num >> shift, shift + exp2)


def _anchors(p: float, ns: Iterable[int], ss: Iterable[int]) -> Iterator[float]:
    """C(n,s) p^s (1-p)^(n-s) for each point (n, s) of ``zip(ns, ss)``,
    0 < p < 1 and 0 <= s <= n; s is the mode of Binomial(n, p), or a k
    below it.

    Float arithmetic is used where it is safe: C(n,s) representable and no
    underflow in the powers.  There the value is C(n,s) times p^s and
    (1-p)^(n-s), each power a ``math.pow`` value that a table keeps for
    the later points.  Elsewhere p = ip * 2^e and 1 - p = iq * 2^e
    exactly, so the value is the big integer C(n,s) ip^s iq^(n-s) times a
    power of two, and its final rounding to float is the only inexact
    step; that keeps the relative error of a whole CDF at recurrence-
    rounding level even for n = 1e5.  Either integer, C(n,s) or
    C(n,s) ip^s iq^(n-s), is carried from a point (n, s - 1), (n - 1, s)
    or (n - 1, s - 1) to (n, s) with one small-integer multiply and an
    exact divide instead of being rebuilt from ``math.comb`` and the
    powers: the same integer either way.
    """
    log_p, log_q = math.log(p), math.log1p(-p)
    q = 1.0 - p
    pow_p, pow_q = {}, {}
    dyadic, exact, ip, iq = None, False, 1, 1
    last_n = last_s = -2  # the point whose integer num is
    for n, s in zip(ns, ss):
        r = n - s
        if (n > 1000 or s * log_p + r * log_q <= -700.0) != exact:
            exact, last_n = not exact, -2
            dyadic = dyadic or _dyadic(p)
            ip, iq, e = dyadic if exact else (1, 1, 0)
        if n == last_n and s == last_s + 1:  # C(n,s) = C(n,s-1) (n-s+1) / s
            num = num * ((r + 1) * ip) // (s * iq)
        elif n == last_n + 1 and s == last_s:  # C(n,s) = C(n-1,s) n / (n-s)
            num = num * (n * iq) // r
        elif n == last_n + 1 and s == last_s + 1:  # C(n,s) = C(n-1,s-1) n / s
            num = num * (n * ip) // s
        else:
            num = math.comb(n, s) * pow(ip, s) * pow(iq, r) if exact else math.comb(n, s)
        last_n, last_s = n, s
        if exact:
            yield _round_scaled(num, e * n)
        else:  # the float branch's powers exceed e^-700, so no table entry is 0
            yield (num * (pow_p.get(s) or pow_p.setdefault(s, math.pow(p, s)))
                   * (pow_q.get(r) or pow_q.setdefault(r, math.pow(q, r))))


# The most recurrence terms (walks x their largest k + 1) one block of an
# array CDF holds at once.
_BLOCK_TERMS = 1 << 13


def binomial_cdf(n, p, k):
    """P(X <= k) for X ~ Binomial(n, p), with k = -1 allowed (gives 0).

    n, p and k broadcast against each other: scalars give a float, arrays
    an array of their broadcast shape.  Each element's terms come from the
    pmf ratio recurrence moving away from its anchor (the mode, or k where
    k is below it), where they only decay; the walk keeps every term up to
    and including the first one below anchor * 1e-22, and the terms are
    summed with ``math.fsum``.  Elements at or above the mode share one
    walk per distinct (n, p), down to 0 and up to the largest such k: each
    sums that walk's kept terms up to its own k, and as ``math.fsum`` is
    correctly rounded, the sum is the one a walk of its own would give.
    An element below the mode walks down from its own anchor.  An array
    call evaluates the walks in blocks of at most ``_BLOCK_TERMS`` terms.
    """
    n, p, k = np.broadcast_arrays(np.asarray(n), np.asarray(p, dtype=float), np.asarray(k))
    if (n < 0).any():
        raise ValueError("n must be non-negative")
    bad = ~((0.0 <= p) & (p <= 1.0))
    if bad.any():
        raise ValueError(f"p must be in [0, 1], got {p[bad][0]}")
    bad = (k < -1) | (k > n)
    if bad.any():
        raise ValueError(f"k must be in [-1, n], got {k[bad][0]}")
    # k = -1 gives 0 and k = n gives 1; below n, p = 0 gives 1 and p = 1 gives 0
    out = np.where((k == n) | ((k >= 0) & (p == 0.0)), 1.0, 0.0)
    live = (0 <= k) & (k < n) & (0.0 < p) & (p < 1.0)
    if live.any():
        out[live] = _live_cdf(n[live], p[live], k[live])
    return float(out) if out.ndim == 0 else out


def _live_cdf(n: np.ndarray, p: np.ndarray, k: np.ndarray) -> np.ndarray:
    """binomial_cdf of 0 < p < 1 and 0 <= k < n, elementwise."""
    s = np.minimum(_binomial_mode(n, p), k).astype(np.int64)
    # the elements in order of (p, n, s, k): each run of like (p, n, s) is
    # one walk, from s down to 0 and up to the run's last k, so the elements
    # at or above the mode of one (n, p) share a walk
    order = np.lexsort((k, s, n, p))
    n, p, s, k = n[order], p[order], s[order], k[order]
    new = np.ones(n.size, dtype=bool)
    new[1:] = (p[1:] != p[:-1]) | (n[1:] != n[:-1]) | (s[1:] != s[:-1])
    first = np.flatnonzero(new)
    top, up = k[np.append(first[1:] - 1, n.size - 1)], k - s
    n, p, s = n[first], p[first], s[first]
    del k  # a large call's peak memory is its element arrays: drop each once used
    # the walks are distinct points (p, n, s), each p's in order of (n, s),
    # the order in which _anchors carries its integers
    ends = [*(np.flatnonzero(p[1:] != p[:-1]) + 1).tolist(), first.size]
    anchor = np.array([value for lo, hi in zip([0, *ends], ends)
                       for value in _anchors(float(p[lo]), n[lo:hi].tolist(), s[lo:hi].tolist())])
    # blocks of walks of like top: from the narrowest walk left, as many
    # walks as fit _BLOCK_TERMS at the widest walk that many would reach;
    # the elements in the order of their walks' ranks by top
    by_top = np.argsort(top, kind="stable")
    rank = np.empty_like(by_top)
    rank[by_top] = np.arange(by_top.size)
    at = rank[np.cumsum(new) - 1]
    cells = np.argsort(at, kind="stable")
    at, up, order = at[cells], up[cells], order[cells]
    del cells
    widths = (top[by_top] + 1).tolist()
    bounds = [0]
    while bounds[-1] < by_top.size:
        lo = bounds[-1]
        hi = min(lo + max(_BLOCK_TERMS // widths[lo], 1), by_top.size)
        bounds.append(min(lo + max(_BLOCK_TERMS // widths[hi - 1], 1), by_top.size))
    out = np.empty(at.size)
    cuts = np.searchsorted(at, bounds).tolist()
    for lo, hi, a, b in zip(bounds, bounds[1:], cuts, cuts[1:]):
        block = by_top[lo:hi]
        out[order[a:b]] = np.minimum(_walk_sums(n[block], p[block], s[block], top[block],
                                                anchor[block], at[a:b] - lo, up[a:b]), 1.0)
    return out


def _walk_sums(n, p, s, top, anchor, at, up) -> list[float]:
    """The sums of walks' kept terms: element i reads walk ``at[i]`` from s
    down to 0 and from s up to s + ``up[i]``.

    Each walk goes down from s in one row of a walk matrix and, where its
    top is above s, up to top in the next row, so its kept terms are
    contiguous in row-major order.  An upward row is a downward one in
    t' = n - t with p and 1 - p swapped: its ratio t' p / ((n-t'+1) q) is
    the upward ratio (n-t) p / ((t+1) q), bit for bit.
    """
    rising = np.flatnonzero(top > s)
    # the rows, each walk's downward one and then any upward one, with the
    # columns start, steps, p, 1 - p, n and anchor
    order = np.argsort(np.concatenate([2 * np.arange(n.size), 2 * rising + 1]))
    q = 1.0 - p
    rows = np.hstack([np.array([s, s, p, q, n, anchor]),
                      np.array([n - s, top - s, q, p, n, anchor])[:, rising]])[:, order]
    start, steps, p_row, q_row, n_row = rows[:5, :, None]
    upward = order >= n.size
    # ratio pmf(t-1)/pmf(t) = t q / ((n-t+1) p) at t = start, start-1, ..
    j = np.arange(int(rows[1].max()))
    t = start - j
    ratios = np.where(j < steps, (t * q_row) / ((n_row - t + 1) * p_row), 0.0)
    terms, kept = _walk(rows[5], ratios, rows[1])
    kept[upward, 0] = False  # the anchor once, in the downward row
    counts = kept.sum(axis=1)
    starts, down = (np.cumsum(counts) - counts)[~upward][at], counts[~upward][at]
    ups = np.zeros(n.size, dtype=counts.dtype)
    ups[rising] = counts[upward]
    ends = starts + down + np.minimum(up, ups[at])
    terms = terms[kept].tolist()
    return list(map(math.fsum, map(terms.__getitem__, map(slice, starts.tolist(), ends.tolist()))))


def _walk(anchor: np.ndarray, ratios: np.ndarray, steps: np.ndarray):
    """Rows anchor, anchor * r_1, anchor * r_1 * r_2, ... of ratio walks,
    and the mask of the terms each walk keeps.

    ``ratios[i, j - 1]`` is the ratio of step j, which row i takes for
    j <= ``steps[i]``.  ``np.multiply.accumulate`` multiplies strictly in
    sequence, so each term is the product a term-by-term loop forms.  A row
    keeps its anchor and its steps up to and including the first term below
    anchor * 1e-22.
    """
    terms = np.empty((anchor.size, ratios.shape[1] + 1))
    terms[:, 0] = anchor
    terms[:, 1:] = ratios
    np.multiply.accumulate(terms, axis=1, out=terms)
    kept = np.arange(terms.shape[1]) <= steps[:, None]
    below = terms[:, 1:-1] < (anchor * _TERM_CUTOFF)[:, None]
    kept[:, 2:] &= ~np.logical_or.accumulate(below, axis=1)
    return terms, kept


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
    np.multiply.accumulate(down, out=out[mode::-1])
    np.multiply.accumulate(up, out=out[mode:])
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
    ratio recurrences.  Successive modes differ by at most one, so the
    anchor's integer is carried from j to j + 1.
    """
    if start < 0:
        raise ValueError("start must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        for j in range(start, stop):
            yield _degenerate_pmf(j, p)
        return
    js = range(start, stop)
    modes = [int(_binomial_mode(j, p)) for j in js]
    for j, mode, anchor in zip(js, modes, _anchors(p, js, modes)):
        yield _pmf_from_anchor(j, p, mode, anchor)


def beta_tail(alpha, beta, y):
    """P(Beta(alpha, beta) > y) for integer alpha, beta >= 1.

    Uses the discrete identity with the binomial CDF, so no continuous
    quadrature is involved; broadcasts as :func:`binomial_cdf` does.
    """
    alpha, beta, y = np.asarray(alpha), np.asarray(beta), np.asarray(y, dtype=float)
    if (alpha < 1).any() or (beta < 1).any():
        raise ValueError("alpha and beta must be integers >= 1")
    bad = ~((0.0 <= y) & (y <= 1.0))
    if bad.any():
        raise ValueError(f"y must be in [0, 1], got {y[bad][0]}")
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
    cdf = binomial_cdf(trials, p, np.arange(trials))
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
