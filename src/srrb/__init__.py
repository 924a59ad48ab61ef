"""Rising rested bandits: Thompson-sampling policies, instance analytics,
distribution numerics, and a reproducible experiment harness.

The names below are exported lazily: ``import srrb`` loads no submodule,
and the first access to a name (``srrb.Instance``, or ``from srrb import
Instance``) imports the submodule that owns it and caches the name here.
So a CLI subcommand loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"


class InvalidInstanceError(ValueError):
    """The arm/horizon combination violates a model invariant.  Defined
    here, not in ``srrb.instance``, so that the CLI catches it without numpy."""


# submodule -> the names it exports through the package
_EXPORTS = {
    "instance": ("Arm", "Instance"),
    "curves": (
        "RewardCurve",
        "RewardLaw",
        "ExponentialCurve",
        "PolynomialCurve",
        "LinearCappedCurve",
        "ConstantCurve",
        "TabulatedCurve",
        "BernoulliLaw",
        "BoundedUniformLaw",
    ),
    "analytics": (
        "AnalysisReport",
        "BoundTerms",
        "SigmaReport",
        "WindowedSigmaReport",
        "build_report",
        "gaps",
        "growth_index",
        "pull_bound_terms",
        "sigma_complexity",
        "windowed_sigma_complexity",
    ),
    "constructions": (
        "LowerBoundPair",
        "lower_bound_instances",
        "vanishing_gap_pair",
        "persistent_gap_pair",
        "random_rising_instance",
    ),
    "policies": (
        "Policy",
        "PolicyConfig",
        "make_policy",
        "default_precision_scale",
        "default_sw_window",
    ),
    "harness": (
        "RunRecord",
        "Aggregate",
        "run_single",
        "run_batch",
        "run_batches",
        "sweep_batches",
        "child_seed",
        "evaluation_grid",
        "wald_regret_bound",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "InvalidInstanceError", *_OWNER]


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
