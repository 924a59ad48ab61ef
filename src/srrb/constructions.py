"""Named instance families: the minimax two-instance construction, the two
optimistic-baseline comparison pairs, and a random rising suite.

The minimax pair is built from ramp curves with rational slope and cap,
so the gap constants that certify the regret lower bound
K*(sigma_bar - 2)/64 are checked on the closed-form ramp means in exact
rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytics import sigma_complexity
from .curves import (
    BernoulliLaw,
    BoundedUniformLaw,
    ExponentialCurve,
    LinearCappedCurve,
    PolynomialCurve,
    TabulatedCurve,
)
from .instance import Arm, Instance

__all__ = [
    "LowerBoundPair",
    "lower_bound_instances",
    "vanishing_gap_pair",
    "persistent_gap_pair",
    "random_rising_instance",
]


def _ramp_mean(slope: Fraction, cap: Fraction, t: int) -> Fraction:
    """Exact mean of min(slope * (n - 1), cap) over n = 1..t, slope > 0.

    The first m = min(t, floor(cap / slope) + 1) terms are below or at the
    cap and sum to slope * m (m - 1) / 2; the other t - m sit at the cap.
    """
    m = min(t, math.floor(cap / slope) + 1)
    return (slope * m * (m - 1) / 2 + cap * (t - m)) / t


@dataclass(frozen=True)
class LowerBoundPair:
    """The two deterministic instances certifying the regret lower bound.

    ``base`` has one arm ramping to 1/2 and K-1 arms ramping to 1/4;
    ``boosted`` additionally lifts one designated arm to cap 1.  Both lie
    in the class with complexity index at most ``sigma_bar``, and the gap
    constants 5/32 and 1/8 hold exactly.
    """

    base: Instance
    boosted: Instance
    bound: float
    sigma_bar: int
    boosted_arm: int
    base_gap: Fraction  # min over suboptimal arms of the final averaged gap in `base`
    boosted_gap: Fraction  # final averaged gap of arm 0 in `boosted`


def lower_bound_instances(num_arms: int, sigma_bar: int, horizon: int) -> LowerBoundPair:
    """Build the hard instance pair for ``num_arms`` arms and complexity
    budget ``sigma_bar``, with the certified regret value
    num_arms * (sigma_bar - 2) / 64.

    Requires 2 <= sigma_bar <= (horizon - 1) / 2 and at least two arms.
    The ramp slope is 1 / (sigma_bar - 2), the degenerate budget
    sigma_bar = 2 using a one-step jump instead.
    """
    if num_arms < 2:
        raise ValueError(f"need at least two arms, got {num_arms}")
    if not 2 <= sigma_bar <= (horizon - 1) // 2:
        raise ValueError(
            f"sigma_bar must be in [2, {(horizon - 1) // 2}] for horizon {horizon}, got {sigma_bar}"
        )
    slope = Fraction(1, sigma_bar - 2) if sigma_bar > 2 else Fraction(1)
    law = BoundedUniformLaw(half_width=0.0)
    boosted_arm = 1

    def ramp(cap: Fraction) -> Arm:
        return Arm(LinearCappedCurve(slope=slope, cap=cap, offset=1), law)

    base_arms = [ramp(Fraction(1, 2))] + [ramp(Fraction(1, 4)) for _ in range(num_arms - 1)]
    boosted_arms = list(base_arms)
    boosted_arms[boosted_arm] = ramp(Fraction(1))
    base = Instance(base_arms, horizon)
    boosted = Instance(boosted_arms, horizon)

    for inst in (base, boosted):
        overall = sigma_complexity(inst).overall
        if overall > sigma_bar:
            raise AssertionError(
                f"construction escaped its complexity budget: {overall} > {sigma_bar}"
            )

    top = _ramp_mean(slope, Fraction(1, 2), horizon)
    base_gap = top - _ramp_mean(slope, Fraction(1, 4), horizon)
    boosted_gap = _ramp_mean(slope, Fraction(1), horizon) - top
    if base_gap < Fraction(5, 32) or boosted_gap < Fraction(1, 8):
        raise AssertionError("gap constants of the construction failed their exact check")

    bound = num_arms * (sigma_bar - 2) / 64.0
    return LowerBoundPair(
        base=base,
        boosted=boosted,
        bound=bound,
        sigma_bar=sigma_bar,
        boosted_arm=boosted_arm,
        base_gap=base_gap,
        boosted_gap=boosted_gap,
    )


def vanishing_gap_pair(horizon: int) -> Instance:
    """Two fast-saturating Bernoulli arms, 1 - 2^-n versus 1 - 2^(-2n+2).

    Both arms converge to 1 so quickly that the best achievable averaged
    gap decays like 5/(6T): no reference pull count gives a gap bounded
    away from zero, which is the regime where growth-index methods win.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    fast = ExponentialCurve(c=1.0, a=math.log(2.0))
    n = np.arange(1, horizon + 1, dtype=float)
    faster = TabulatedCurve(-np.expm1((2.0 - 2.0 * n) * math.log(2.0)))
    return Instance([Arm(fast, BernoulliLaw()), Arm(faster, BernoulliLaw())], horizon)


def persistent_gap_pair(horizon: int, exponent: float = 0.5) -> Instance:
    """Two polynomially-rising Bernoulli arms separated by 1/2 forever:
    1 - 2^(e-1) (n+1)^-e and 1/2 - 2^(e-1) (n+1)^-e.

    After two pulls the optimal arm's average exceeds the runner-up's
    ceiling of 1/2, so the separation cost is constant in the horizon.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0.0 < exponent <= 1.0:
        raise ValueError(f"exponent must be in (0, 1], got {exponent}")
    n = np.arange(1, horizon + 1, dtype=float)
    dip = 2.0 ** (exponent - 1.0) * (n + 1.0) ** (-exponent)
    top = TabulatedCurve(1.0 - dip)
    low = TabulatedCurve(0.5 - dip)
    return Instance([Arm(top, BernoulliLaw()), Arm(low, BernoulliLaw())], horizon)


# the upper end of the polynomial family's scale b in random_rising_instance
_MAX_POLY_SCALE = 5.0


def random_rising_instance(horizon: int, num_arms: int = 15, seed: int = 0) -> Instance:
    """Random Bernoulli instance with arms drawn from the exponential
    family c(1 - exp(-a n)) and the polynomial family
    c(1 - b (n + b^(1/rho))^(-rho)), a, c, rho uniform on (0, 1] and b
    uniform on [0, 5].

    Redraws on the (measure-zero) event of a tied optimum.
    """
    if num_arms < 1:
        raise ValueError("need at least one arm")
    rng = np.random.default_rng(seed)
    for _ in range(32):
        arms = []
        for _ in range(num_arms):
            c = 1.0 - rng.random()  # uniform on (0, 1]
            if rng.random() < 0.5:
                curve = ExponentialCurve(c=c, a=1.0 - rng.random())
            else:
                curve = PolynomialCurve(
                    c=c, b=_MAX_POLY_SCALE * rng.random(), rho=1.0 - rng.random()
                )
            arms.append(Arm(curve, BernoulliLaw()))
        try:
            return Instance(arms, horizon)
        except ValueError:
            continue
    raise RuntimeError("could not draw an instance with a unique optimum")
