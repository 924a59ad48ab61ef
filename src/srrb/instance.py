"""Bandit instances: arms, horizon, and cached average-reward tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import InvalidInstanceError
from .curves import RewardCurve, RewardLaw, curve_from_dict, law_from_dict

__all__ = ["Arm", "Instance", "InvalidInstanceError"]


@dataclass(frozen=True)
class Arm:
    curve: RewardCurve
    law: RewardLaw


class Instance:
    """A rising rested bandit: K arms over a fixed horizon.

    The per-arm prefix sums of mu(1..n) are built once at construction
    (float64), making every average-reward query O(1).  Instances are
    immutable afterwards and safe to share across threads.

    The optimal arm is the argmax of the horizon average reward and must
    be unique; ties are rejected.
    """

    def __init__(self, arms, horizon: int):
        arms = tuple(arms)
        if not arms:
            raise InvalidInstanceError("an instance needs at least one arm")
        if horizon < 1:
            raise InvalidInstanceError(f"horizon must be >= 1, got {horizon}")
        self._arms = arms
        self._horizon = int(horizon)

        mus = np.empty((len(arms), horizon))
        for i, arm in enumerate(arms):
            values = arm.curve.mu_array(horizon)
            lo, hi = arm.law.mean_bounds()
            # monotonicity makes the endpoint checks sufficient
            if values[0] < lo - 1e-15 or values[-1] > hi + 1e-15:
                raise InvalidInstanceError(
                    f"arm {i}: mean range [{values[0]}, {values[-1]}] incompatible "
                    f"with {arm.law.kind} law (needs [{lo}, {hi}])"
                )
            if np.any(np.diff(values) < 0.0):
                raise InvalidInstanceError(f"arm {i}: expected reward is not non-decreasing")
            mus[i] = values
        self._mus = mus
        prefix = np.zeros((len(arms), horizon + 1))
        np.cumsum(mus, axis=1, out=prefix[:, 1:])
        self._prefix = prefix
        self._mus.setflags(write=False)
        self._prefix.setflags(write=False)

        finals = prefix[:, horizon] / horizon
        best = int(np.argmax(finals))
        if np.count_nonzero(finals == finals[best]) > 1:
            raise InvalidInstanceError("optimal arm is not unique at the horizon")
        self._optimal_arm = best

    @property
    def arms(self) -> tuple[Arm, ...]:
        return self._arms

    @property
    def num_arms(self) -> int:
        return len(self._arms)

    @property
    def horizon(self) -> int:
        return self._horizon

    @property
    def optimal_arm(self) -> int:
        return self._optimal_arm

    def at_horizon(self, horizon: int | None) -> "Instance":
        """This instance re-anchored at a run horizon of ``horizon`` rounds.

        The optimal arm, the regret reference and the uniqueness check all
        depend on the horizon, so a shorter run needs a shorter instance.
        ``None`` or the instance's own horizon returns ``self``.
        """
        if horizon is None or horizon == self._horizon:
            return self
        if not 1 <= horizon <= self._horizon:
            raise ValueError(f"horizon must be in [1, {self._horizon}], got {horizon}")
        # a plain Instance: a subclass may take other constructor arguments
        return Instance(self._arms, int(horizon))

    def _check_arm(self, i: int) -> None:
        if not 0 <= i < len(self._arms):
            raise IndexError(f"arm index {i} out of range for {len(self._arms)} arms")

    def expected_reward(self, i: int, n: int) -> float:
        """mu_i(n), the expected reward of arm i at its n-th pull."""
        if 0 <= i < len(self._arms) and 1 <= n <= self._horizon:
            return self._mus.item(i, n - 1)
        self._check_arm(i)
        raise ValueError(f"pull count must be in [1, {self._horizon}], got {n}")

    def expected_rewards(self, i: int) -> np.ndarray:
        """Read-only vector of mu_i(1..T)."""
        self._check_arm(i)
        return self._mus[i]

    def avg_expected_reward(self, i: int, t: int) -> float:
        """Mean of mu_i(1..t)."""
        self._check_arm(i)
        if not 1 <= t <= self._horizon:
            raise ValueError(f"round must be in [1, {self._horizon}], got {t}")
        return float(self._prefix[i, t] / t)

    def avg_expected_rewards(self, i: int) -> np.ndarray:
        """Vector of averages for t = 1..T (non-decreasing for rising arms)."""
        self._check_arm(i)
        return self._prefix[i, 1:] / np.arange(1, self._horizon + 1)

    def windowed_avg_expected_rewards(self, i: int, tau: int) -> np.ndarray:
        """Vector of windowed averages for t = tau..T."""
        self._check_arm(i)
        if not 1 <= tau <= self._horizon:
            raise ValueError(f"window must be in [1, {self._horizon}], got {tau}")
        return (self._prefix[i, tau:] - self._prefix[i, : self._horizon - tau + 1]) / tau

    def to_dict(self) -> dict:
        return {
            "horizon": self._horizon,
            "arms": [
                {**arm.curve.to_dict(), **arm.law.to_dict()}
                for arm in self._arms
            ],
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "Instance":
        try:
            horizon = spec["horizon"]
            arm_specs = spec["arms"]
        except (TypeError, KeyError) as exc:
            raise ValueError("instance document needs 'horizon' and 'arms'") from exc
        if not isinstance(horizon, int) or isinstance(horizon, bool):
            raise ValueError(f"horizon must be an integer, got {horizon!r}")
        arms = []
        for k, arm_spec in enumerate(arm_specs):
            try:
                curve = curve_from_dict(arm_spec)
                law = law_from_dict(arm_spec.get("law", "bernoulli"), arm_spec.get("law_params"))
            except ValueError as exc:
                raise ValueError(f"arm {k}: {exc}") from None
            arms.append(Arm(curve, law))
        return cls(arms, horizon)

    def __repr__(self) -> str:
        return f"Instance(K={self.num_arms}, T={self._horizon}, optimal_arm={self._optimal_arm})"
