"""The simulator's mean regret against the exact expected regret of
``exact_regret.expected_regret`` on a two-arm, 24-round rising instance
with Bernoulli rewards, and on its copy with deterministic rewards
(bounded-uniform laws of half width 0).

Each random cell runs ``run_batch`` and asks for |z| <= Z_MAX, with z the
gap between the simulated mean and the exact value over the mean's
standard error.  Seven cells at |z| <= 4 each: a two-sided level of
6.3e-5 a cell, so by Bonferroni a correct engine fails some cell with
probability at most 4.4e-4.  The master seed was not used while the
oracle was written.  On the deterministic copy ``ucb1`` follows one path
with no tie, so its regret must equal the exact value up to the order of
summation.

Each cell's run count is set for power against a planted engine change:
the UCB cell's (ucb_alpha 2 -> 1.8 moves its exact value by about 7
standard errors at 8000 runs) is the smallest shift, so it gets the most
runs; a Gaussian precision of 0.5 for 1, 2 forced Beta pulls for 3, or
swapped Beta parameters move theirs by 10 or more at 2000 runs.  A
window of 3 rounds that evicts one round late moves the windowed
``sw_ucb`` cell by 8 to 10 standard errors at 8000 runs and the windowed
``beta_swts`` cell by 8 to 9 at 3000; no full-window cell evicts.  A
halved window moves every random cell by 7 or more (the windowed
``sw_ucb`` one, left a window of 1, alternates its arms with no spread)
and the deterministic ``ucb1`` path by 0.15.
"""

import math

import pytest
from scipy import integrate, stats

from exact_regret import beta_beats, expected_regret, normal_beats
from srrb.harness import run_batch, run_single
from srrb.instance import Instance
from srrb.policies import PolicyConfig

# a ramp that overtakes a constant arm after eleven pulls
DOC = {
    "horizon": 24,
    "arms": [
        {"family": "linear_capped", "params": {"slope": 0.05, "cap": 0.95, "offset": 0.0},
         "law": "bernoulli", "law_params": {}},
        {"family": "constant", "params": {"value": 0.55}, "law": "bernoulli", "law_params": {}},
    ],
}
# the same arms paying their means
DETERMINISTIC_DOC = {
    **DOC,
    "arms": [{**arm, "law": "bounded_uniform", "law_params": {"half_width": 0.0}}
             for arm in DOC["arms"]],
}
MASTER_SEED = 4127
Z_MAX = 4.0

# (instance, config, the oracle's kind, forced pulls, parameter and window,
# runs): README defaults, ucb_alpha 2, sw_xi 0.6 and precision_scale
# min(1 / (4 lambda^2), 1) = 1 for a Bernoulli law (lambda^2 = 1/4) and a
# half-width-0 one (lambda^2 = 0)
CELLS = {
    "ucb1": (DOC, PolicyConfig("ucb1"), "ucb1", 0, 2.0, None, 8000),
    "gauss_swgts forced 1": (
        DOC, PolicyConfig("gauss_swgts", forced_pulls=1), "gauss_swgts", 1, 1.0, None, 2000
    ),
    "beta_swts": (DOC, PolicyConfig("beta_swts"), "beta_swts", 0, 0.0, None, 2000),
    "beta_swts forced 3": (
        DOC, PolicyConfig("beta_swts", forced_pulls=3), "beta_swts", 3, 0.0, None, 2000
    ),
    "sw_ucb window 3": (DOC, PolicyConfig("sw_ucb", window=3), "sw_ucb", 0, 0.6, 3, 8000),
    "beta_swts window 3": (
        DOC, PolicyConfig("beta_swts", window=3), "beta_swts", 0, 0.0, 3, 3000
    ),
    "deterministic gauss_swgts forced 1": (
        DETERMINISTIC_DOC, PolicyConfig("gauss_swgts", forced_pulls=1), "gauss_swgts", 1, 1.0,
        None, 2000,
    ),
}


@pytest.mark.parametrize("cell", list(CELLS))
def test_simulated_mean_matches_the_exact_regret(cell):
    doc, config, kind, forced, param, window, runs = CELLS[cell]
    inst = Instance.from_dict(doc)
    exact = expected_regret(inst, kind, forced, param, window)
    agg = run_batch(inst, config, runs=runs, master_seed=MASTER_SEED)
    assert agg.grid[-1] == inst.horizon
    # std_regret divides by the number of runs; the error of the mean by runs - 1
    error = float(agg.std_regret[-1]) / math.sqrt(runs - 1)
    z = (float(agg.mean_regret[-1]) - exact) / error
    assert abs(z) <= Z_MAX, (cell, exact, float(agg.mean_regret[-1]), error)


def test_deterministic_ucb1_regret_is_the_exact_value():
    # no exact tie on this path, so no draw: every seed gives the one regret
    inst = Instance.from_dict(DETERMINISTIC_DOC)
    exact = expected_regret(inst, "ucb1", 0, 2.0)
    for seed in (MASTER_SEED, MASTER_SEED + 1):
        record = run_single(inst, PolicyConfig("ucb1"), seed=seed)
        # the oracle adds by math.fsum, the harness one round at a time
        assert record.final_regret == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_round_robin_regret_is_the_direct_sum():
    # twelve forced pulls each fill all 24 rounds: no choice is left
    inst = Instance.from_dict(DOC)
    best = inst.expected_rewards(inst.optimal_arm)
    direct = math.fsum(
        best[t - 1] - inst.expected_reward((t - 1) % 2, (t + 1) // 2) for t in range(1, 25)
    )
    for kind, param in (("ucb1", 2.0), ("gauss_swgts", 1.0), ("beta_swts", 0.0)):
        assert expected_regret(inst, kind, 12, param) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize(
    "a0, b0, a1, b1", [(1, 1, 1, 1), (3, 2, 5, 7), (10, 3, 2, 9), (1, 12, 13, 1)]
)
def test_beta_choice_matches_quadrature(a0, b0, a1, b1):
    numeric, _ = integrate.quad(
        lambda x: stats.beta.pdf(x, a0, b0) * stats.beta.cdf(x, a1, b1), 0.0, 1.0, epsabs=1e-14
    )
    assert beta_beats(a0, b0, a1, b1) == pytest.approx(numeric, rel=1e-9, abs=1e-15)
    assert beta_beats(a0, b0, a1, b1) + beta_beats(a1, b1, a0, b0) == pytest.approx(1.0, abs=1e-12)


def test_normal_choice_matches_scipy():
    assert normal_beats(0.6, 0.2, 0.4, 0.1) == pytest.approx(
        stats.norm.cdf(0.2 / math.sqrt(0.3)), rel=1e-12
    )
    assert normal_beats(0.5, 1.0, 0.5, 2.0) == 0.5
