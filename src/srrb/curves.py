"""Expected-reward curves and reward laws for rising rested arms.

A curve gives the expected reward mu(n) of an arm at its n-th pull and
must be non-decreasing in n.  Closed-form families guarantee this through
parameter constraints; tabulated curves are checked entry by entry and
extend past their table as a constant.

Every family stores its parameters as floats and evaluates only through
``mu_array``, which :class:`~srrb.instance.Instance` calls once per arm to
build its table of mu(1..T); everything downstream reads that table.

A reward law is a pure map from one uniform u on [0, 1) and the curve
mean to a reward; it draws nothing itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

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

def _as_float(value: numbers.Real) -> float:
    """``float(value)``, with an integer or Fraction too large for a float
    as an infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _real(name: str, value) -> float:
    """A finite real number (no ``bool``) as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    as_float = _as_float(value)
    if not math.isfinite(as_float):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return as_float


def _check_unit_interval(name: str, value: float, open_left: bool = False) -> None:
    lo_ok = value > 0.0 if open_left else value >= 0.0
    if not (lo_ok and value <= 1.0):
        bracket = "(0, 1]" if open_left else "[0, 1]"
        raise ValueError(f"{name} must be in {bracket}, got {value}")


class RewardCurve:
    """Base class for non-decreasing expected-reward functions.

    A closed-form family is a frozen dataclass whose fields are its
    parameters: each is checked as a finite real number, then ``_check``
    checks their ranges.
    """

    family: str = ""

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _real(f.name, getattr(self, f.name)))
        self._check()

    def _check(self) -> None:
        pass

    def mu_array(self, limit: int) -> np.ndarray:
        """float64 vector of mu(1), ..., mu(limit)."""
        raise NotImplementedError

    def params(self) -> dict:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}

    def to_dict(self) -> dict:
        return {"family": self.family, "params": self.params()}


@dataclass(frozen=True)
class ExponentialCurve(RewardCurve):
    """mu(n) = c * (1 - exp(-a * n)) with c, a in (0, 1]."""

    c: float
    a: float
    family = "exponential"

    def _check(self) -> None:
        _check_unit_interval("c", self.c, open_left=True)
        _check_unit_interval("a", self.a, open_left=True)

    def mu_array(self, limit: int) -> np.ndarray:
        n = np.arange(1, limit + 1, dtype=float)
        return self.c * -np.expm1(-self.a * n)


@dataclass(frozen=True)
class PolynomialCurve(RewardCurve):
    """mu(n) = c * (1 - b * (n + b**(1/rho))**(-rho)) with c, rho in (0, 1]
    and b >= 0.

    The shift b**(1/rho) keeps the value non-negative at n = 1 for every
    b, since b * (n + b**(1/rho))**(-rho) < 1 always.  In floating point
    that term can round to just above 1 when the shift is huge, so the
    value is clamped at 0.  A shift past the largest float absorbs every
    n, where the clamped value is 0 too.
    """

    c: float
    b: float
    rho: float
    family = "polynomial"

    def _check(self) -> None:
        _check_unit_interval("c", self.c, open_left=True)
        _check_unit_interval("rho", self.rho, open_left=True)
        if self.b < 0.0:
            raise ValueError(f"b must be >= 0, got {self.b}")

    def mu_array(self, limit: int) -> np.ndarray:
        n = np.arange(1, limit + 1, dtype=float)
        try:
            shift = self.b ** (1.0 / self.rho) if self.b > 0.0 else 0.0
        except OverflowError:
            return np.zeros(limit)
        return np.maximum(self.c * (1.0 - self.b * (n + shift) ** (-self.rho)), 0.0)


@dataclass(frozen=True)
class LinearCappedCurve(RewardCurve):
    """mu(n) = min(slope * (n - offset), cap)."""

    slope: float
    cap: float
    offset: float = 1.0
    family = "linear_capped"

    def _check(self) -> None:
        if self.slope < 0.0:
            raise ValueError(f"slope must be >= 0, got {self.slope}")
        if self.slope * (1.0 - self.offset) < 0.0:
            raise ValueError("curve would be negative at the first pull")

    def mu_array(self, limit: int) -> np.ndarray:
        n = np.arange(1, limit + 1, dtype=float)
        return np.minimum(self.slope * (n - self.offset), self.cap)


@dataclass(frozen=True)
class ConstantCurve(RewardCurve):
    """mu(n) = value for every n (a stationary arm)."""

    value: float
    family = "constant"

    def mu_array(self, limit: int) -> np.ndarray:
        return np.full(limit, self.value)


class TabulatedCurve(RewardCurve):
    """Explicit table of values; constant extension past the table end."""

    family = "tabulated"

    def __init__(self, values):
        self._array = np.array([_real("values", v) for v in values])
        if not self._array.size:
            raise ValueError("tabulated curve needs at least one value")
        if np.any(np.diff(self._array) < 0.0):
            raise ValueError("tabulated values must be non-decreasing")
        self._array.setflags(write=False)

    def mu_array(self, limit: int) -> np.ndarray:
        out = np.full(limit, self._array[-1])
        size = min(limit, self._array.size)
        out[:size] = self._array[:size]
        return out

    def params(self) -> dict:
        return {"values": self._array.tolist()}

    def __eq__(self, other) -> bool:
        return isinstance(other, TabulatedCurve) and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash(tuple(self._array.tolist()))

    def __repr__(self) -> str:
        return f"TabulatedCurve(<{self._array.size} values>)"


def _build(table: dict, what: str, name, params):
    """``table[name](**params)``; an unknown name, or an unknown or missing
    parameter, is a ValueError."""
    try:
        cls = table[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {what} {name!r}") from None
    if not isinstance(params, dict):
        raise ValueError(f"{what} {name!r} needs a parameter object, got {params!r}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(f"{what} {name!r}: {exc}") from None


_CURVE_FAMILIES = {
    cls.family: cls
    for cls in (ExponentialCurve, PolynomialCurve, LinearCappedCurve, ConstantCurve, TabulatedCurve)
}


def curve_from_dict(spec: dict) -> RewardCurve:
    """Build a curve from its serialized form {"family": ..., "params": ...}."""
    try:
        family = spec["family"]
        params = spec.get("params", {})
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed curve spec: {spec!r}") from exc
    return _build(_CURVE_FAMILIES, "curve family", family, params)


class RewardLaw:
    """Reward distribution around the curve mean at each pull."""

    kind: str = ""

    def sample(self, u: float, mean: float) -> float:
        """The reward around ``mean`` that the uniform ``u`` in [0, 1) maps to."""
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
    """Reward 1 when u < mu(n), else 0: 1 with probability mu(n)."""

    kind = "bernoulli"

    def sample(self, u: float, mean: float) -> float:
        return 1.0 if u < mean else 0.0

    def subgaussian_scale_sq(self) -> float:
        return 0.25

    def mean_bounds(self) -> tuple[float, float]:
        return (0.0, 1.0)


@dataclass(frozen=True)
class BoundedUniformLaw(RewardLaw):
    """Uniform reward on [mu - w, mu + w]; mean-preserving by construction.

    The variance proxy is w^2/3 (the exact variance; the uniform law is
    strictly subgaussian), or the Hoeffding value w^2 from the support
    width when ``hoeffding`` is set.  w = 0 gives deterministic rewards:
    adding the zero w * (2u - 1) returns the mean bit for bit, but for a
    mean of -0.0, which may come back as +0.0.
    """

    half_width: float
    hoeffding: bool = False
    kind = "bounded_uniform"

    def __post_init__(self) -> None:
        object.__setattr__(self, "half_width", _real("half_width", self.half_width))
        if self.half_width < 0.0:
            raise ValueError(f"half_width must be >= 0, got {self.half_width}")
        if not isinstance(self.hoeffding, bool):
            raise ValueError(f"hoeffding must be true or false, got {self.hoeffding!r}")

    def sample(self, u: float, mean: float) -> float:
        return mean + self.half_width * (2.0 * u - 1.0)

    def subgaussian_scale_sq(self) -> float:
        w = self.half_width
        return w * w if self.hoeffding else w * w / 3.0

    def mean_bounds(self) -> tuple[float, float]:
        # support must stay inside [0, 1]: non-negative and bounded rewards
        return (self.half_width, 1.0 - self.half_width)

    def params(self) -> dict:
        out = {"half_width": self.half_width}
        if self.hoeffding:
            out["hoeffding"] = True
        return out


_LAWS = {cls.kind: cls for cls in (BernoulliLaw, BoundedUniformLaw)}


def law_from_dict(kind: str, params: dict | None = None) -> RewardLaw:
    """Build a reward law from its serialized kind and parameters."""
    return _build(_LAWS, "reward law", kind, {} if params is None else params)
