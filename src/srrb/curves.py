"""Expected-reward curves and reward laws for rising rested arms.

A curve gives the expected reward mu(n) of an arm at its n-th pull and
must be non-decreasing in n.  Closed-form families guarantee this through
parameter constraints; tabulated curves are checked entry by entry and
extend past their table as a constant.

The piecewise-linear and constant families evaluate without rounding when
constructed from ``fractions.Fraction`` parameters, which the minimax
construction relies on for exact gap arithmetic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "RewardCurve",
    "ExponentialCurve",
    "PolynomialCurve",
    "LinearCappedCurve",
    "ConstantCurve",
    "TabulatedCurve",
    "curve_from_dict",
    "RewardLaw",
    "BernoulliLaw",
    "BoundedUniformLaw",
    "law_from_dict",
]

Real = Union[int, float, Fraction]


def _check_unit_interval(name: str, value: float, open_left: bool = False) -> None:
    lo_ok = value > 0.0 if open_left else value >= 0.0
    if not (lo_ok and value <= 1.0):
        bracket = "(0, 1]" if open_left else "[0, 1]"
        raise ValueError(f"{name} must be in {bracket}, got {value}")


class RewardCurve:
    """Base class for non-decreasing expected-reward functions."""

    family: str = ""

    def mu(self, n: int) -> Real:
        """Expected reward at the n-th pull, n >= 1."""
        raise NotImplementedError

    def mu_array(self, limit: int) -> np.ndarray:
        """float64 vector of mu(1), ..., mu(limit)."""
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError

    def is_exact(self) -> bool:
        """True when mu(n) is evaluated in exact rational arithmetic."""
        return False

    def to_dict(self) -> dict:
        return {"family": self.family, "params": self.params()}

    def _check_n(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"pull count must be >= 1, got {n}")


@dataclass(frozen=True)
class ExponentialCurve(RewardCurve):
    """mu(n) = c * (1 - exp(-a * n)) with c, a in (0, 1]."""

    c: float
    a: float
    family = "exponential"

    def __post_init__(self) -> None:
        _check_unit_interval("c", self.c, open_left=True)
        _check_unit_interval("a", self.a, open_left=True)

    def mu(self, n: int) -> float:
        self._check_n(n)
        return self.c * -math.expm1(-self.a * n)

    def mu_array(self, limit: int) -> np.ndarray:
        n = np.arange(1, limit + 1, dtype=float)
        return self.c * -np.expm1(-self.a * n)

    def params(self) -> dict:
        return {"c": float(self.c), "a": float(self.a)}


@dataclass(frozen=True)
class PolynomialCurve(RewardCurve):
    """mu(n) = c * (1 - b * (n + b**(1/rho))**(-rho)) with c, rho in (0, 1]
    and b >= 0.

    The shift b**(1/rho) keeps the value non-negative at n = 1 for every
    b, since b * (n + b**(1/rho))**(-rho) < 1 always.  In floating point
    that term can round to just above 1 when the shift is huge, so the
    value is clamped at 0.
    """

    c: float
    b: float
    rho: float
    family = "polynomial"

    def __post_init__(self) -> None:
        _check_unit_interval("c", self.c, open_left=True)
        _check_unit_interval("rho", self.rho, open_left=True)
        if self.b < 0.0:
            raise ValueError(f"b must be >= 0, got {self.b}")

    def _shift(self) -> float:
        return self.b ** (1.0 / self.rho) if self.b > 0.0 else 0.0

    def mu(self, n: int) -> float:
        self._check_n(n)
        return max(self.c * (1.0 - self.b * (n + self._shift()) ** (-self.rho)), 0.0)

    def mu_array(self, limit: int) -> np.ndarray:
        n = np.arange(1, limit + 1, dtype=float)
        return np.maximum(self.c * (1.0 - self.b * (n + self._shift()) ** (-self.rho)), 0.0)

    def params(self) -> dict:
        return {"c": float(self.c), "b": float(self.b), "rho": float(self.rho)}


def _as_number(value: Real) -> Real:
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"expected a real number, got {type(value)!r}")


@dataclass(frozen=True)
class LinearCappedCurve(RewardCurve):
    """mu(n) = min(slope * (n - offset), cap).

    Parameters may be Fractions, in which case evaluation is exact.
    """

    slope: Real
    cap: Real
    offset: Real = 1
    family = "linear_capped"

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope", _as_number(self.slope))
        object.__setattr__(self, "cap", _as_number(self.cap))
        object.__setattr__(self, "offset", _as_number(self.offset))
        if self.slope < 0:
            raise ValueError(f"slope must be >= 0, got {self.slope}")
        if self.slope * (1 - self.offset) < 0:
            raise ValueError("curve would be negative at the first pull")

    def mu(self, n: int) -> Real:
        self._check_n(n)
        return min(self.slope * (n - self.offset), self.cap)

    def mu_array(self, limit: int) -> np.ndarray:
        n = np.arange(1, limit + 1, dtype=float)
        return np.minimum(float(self.slope) * (n - float(self.offset)), float(self.cap))

    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for v in (self.slope, self.cap, self.offset))

    def params(self) -> dict:
        return {"slope": float(self.slope), "cap": float(self.cap), "offset": float(self.offset)}


@dataclass(frozen=True)
class ConstantCurve(RewardCurve):
    """mu(n) = value for every n (a stationary arm)."""

    value: Real
    family = "constant"

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _as_number(self.value))

    def mu(self, n: int) -> Real:
        self._check_n(n)
        return self.value

    def mu_array(self, limit: int) -> np.ndarray:
        return np.full(limit, float(self.value))

    def is_exact(self) -> bool:
        return isinstance(self.value, (int, Fraction))

    def params(self) -> dict:
        return {"value": float(self.value)}


class TabulatedCurve(RewardCurve):
    """Explicit table of values; constant extension past the table end."""

    family = "tabulated"

    def __init__(self, values):
        values = tuple(_as_number(v) for v in values)
        if not values:
            raise ValueError("tabulated curve needs at least one value")
        for lo, hi in zip(values, values[1:]):
            if hi < lo:
                raise ValueError("tabulated values must be non-decreasing")
        self._values = values
        self._array = np.asarray([float(v) for v in values])
        self._array.setflags(write=False)

    @property
    def values(self) -> tuple:
        return self._values

    def mu(self, n: int) -> Real:
        self._check_n(n)
        return self._values[min(n, len(self._values)) - 1]

    def mu_array(self, limit: int) -> np.ndarray:
        if limit <= len(self._values):
            return self._array[:limit].copy()
        out = np.empty(limit)
        out[: len(self._values)] = self._array
        out[len(self._values) :] = self._array[-1]
        return out

    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for v in self._values)

    def params(self) -> dict:
        return {"values": [float(v) for v in self._values]}

    def __eq__(self, other) -> bool:
        return isinstance(other, TabulatedCurve) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"TabulatedCurve(<{len(self._values)} values>)"


_CURVE_FAMILIES = {
    "exponential": lambda p: ExponentialCurve(c=p["c"], a=p["a"]),
    "polynomial": lambda p: PolynomialCurve(c=p["c"], b=p["b"], rho=p["rho"]),
    "linear_capped": lambda p: LinearCappedCurve(
        slope=p["slope"], cap=p["cap"], offset=p.get("offset", 1)
    ),
    "constant": lambda p: ConstantCurve(value=p["value"]),
    "tabulated": lambda p: TabulatedCurve(values=p["values"]),
}


def curve_from_dict(spec: dict) -> RewardCurve:
    """Build a curve from its serialized form {"family": ..., "params": ...}."""
    try:
        family = spec["family"]
        params = spec.get("params", {})
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed curve spec: {spec!r}") from exc
    try:
        builder = _CURVE_FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown curve family {family!r}") from None
    try:
        return builder(params)
    except KeyError as exc:
        raise ValueError(f"curve family {family!r} is missing parameter {exc}") from None


class RewardLaw:
    """Reward distribution around the curve mean at each pull."""

    kind: str = ""

    def sample(self, rng: np.random.Generator, mean: float) -> float:
        raise NotImplementedError

    def subgaussian_scale_sq(self) -> float:
        """Variance proxy lambda^2 of the centered reward."""
        raise NotImplementedError

    def mean_bounds(self) -> tuple[float, float]:
        """Admissible range for the curve mean under this law."""
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    def to_dict(self) -> dict:
        return {"law": self.kind, "law_params": self.params()}


@dataclass(frozen=True)
class BernoulliLaw(RewardLaw):
    """Reward is 1 with probability mu(n), else 0."""

    kind = "bernoulli"

    def sample(self, rng: np.random.Generator, mean: float) -> float:
        return 1.0 if rng.random() < mean else 0.0

    def subgaussian_scale_sq(self) -> float:
        return 0.25

    def mean_bounds(self) -> tuple[float, float]:
        return (0.0, 1.0)


@dataclass(frozen=True)
class BoundedUniformLaw(RewardLaw):
    """Uniform reward on [mu - w, mu + w]; mean-preserving by construction.

    The variance proxy is w^2/3 (the exact variance; the uniform law is
    strictly subgaussian), or the Hoeffding value w^2 from the support
    width when ``hoeffding`` is set.  w = 0 gives deterministic rewards.
    """

    half_width: float
    hoeffding: bool = False
    kind = "bounded_uniform"

    def __post_init__(self) -> None:
        if self.half_width < 0.0:
            raise ValueError(f"half_width must be >= 0, got {self.half_width}")

    def sample(self, rng: np.random.Generator, mean: float) -> float:
        if self.half_width == 0.0:
            return float(mean)
        return float(mean + self.half_width * (2.0 * rng.random() - 1.0))

    def subgaussian_scale_sq(self) -> float:
        w = self.half_width
        return w * w if self.hoeffding else w * w / 3.0

    def mean_bounds(self) -> tuple[float, float]:
        # support must stay inside [0, 1]: non-negative and bounded rewards
        return (self.half_width, 1.0 - self.half_width)

    def params(self) -> dict:
        out = {"half_width": float(self.half_width)}
        if self.hoeffding:
            out["hoeffding"] = True
        return out


def law_from_dict(kind: str, params: dict | None = None) -> RewardLaw:
    params = params or {}
    if kind == "bernoulli":
        return BernoulliLaw()
    if kind == "bounded_uniform":
        if "half_width" not in params:
            raise ValueError("bounded_uniform law needs half_width")
        return BoundedUniformLaw(
            half_width=params["half_width"], hoeffding=bool(params.get("hoeffding", False))
        )
    raise ValueError(f"unknown reward law {kind!r}")
