"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite takes a few minutes at desk scale.
"""

import json
import time
from fractions import Fraction

import numpy as np

from srrb.analytics import sigma_complexity
from srrb.cli import main
from srrb.constructions import (
    lower_bound_instances,
    random_rising_instance,
    vanishing_gap_pair,
)
from srrb.curves import (
    BernoulliLaw,
    BoundedUniformLaw,
    ConstantCurve,
    LinearCappedCurve,
    TabulatedCurve,
)
from srrb.harness import run_batch, run_batches, run_single, sweep_batches, wald_regret_bound
from srrb.instance import Arm, Instance
from srrb.policies import PolicyConfig
from srrb.verify import (
    _lemma_chain_check,
    _roos_dominance_check,
    identities_suite,
    windows_suite,
)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_inverse_tail_ordering():
    start = time.time()
    rng = np.random.default_rng(20240601)
    check = _lemma_chain_check(rng, vectors_per_j=200)
    elapsed = time.time() - start
    ok = check.passed and elapsed < 60.0
    report(
        1,
        ok,
        f"inverse-tail expectation ordering, worst relative margin "
        f"{check.worst:.2e} <= 1e-9, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_beta_binomial_identity():
    start = time.time()
    suite = identities_suite()
    elapsed = time.time() - start
    identity = suite.checks[0]
    ok = identity.passed and identity.worst <= 1e-10 and elapsed < 5.0
    report(
        2,
        ok,
        f"discrete Beta tail identity, max residual {identity.worst:.2e} <= 1e-10, "
        f"{elapsed:.1f}s < 5s",
    )


def test_criterion_3_tv_bound_dominates():
    rng = np.random.default_rng(20240603)
    check = _roos_dominance_check(rng, cases=500)
    report(
        3,
        check.passed,
        f"TV bound dominated exact TV on 500 random cases, worst margin {check.worst:.2e}",
    )


def test_criterion_4_lower_bound_constants():
    violations = 0
    checked = 0
    for sigma_bar in range(2, 51):
        t_lo = 2 * sigma_bar + 1
        grid = sorted(
            {t_lo, t_lo + 1, t_lo + 4, 4 * sigma_bar + 1, 8 * sigma_bar, 250, 500, 1000}
        )
        for horizon in grid:
            if not t_lo <= horizon <= 1000:
                continue
            pair = lower_bound_instances(3, sigma_bar, horizon)
            checked += 1
            if pair.base_gap < Fraction(5, 32) or pair.boosted_gap < Fraction(1, 8):
                violations += 1
            if sigma_complexity(pair.base).overall > 2 * sigma_bar + 2:
                violations += 1
            if sigma_complexity(pair.boosted).overall > 2 * sigma_bar + 2:
                violations += 1
    report(
        4,
        violations == 0,
        f"exact gap constants 5/32 and 1/8 plus complexity budget on "
        f"{checked} (sigma_bar, horizon) pairs, {violations} violations",
    )


def test_criterion_5_vanishing_gap_envelope():
    worst_ratio = 0.0
    for horizon in (10, 100, 1000, 10_000):
        inst = vanishing_gap_pair(horizon)
        # the optimal arm's average is non-decreasing, so the best
        # reference sits at the horizon itself
        best_gap = max(
            float(np.max(inst.avg_expected_rewards(0)))
            - inst.avg_expected_reward(1, horizon),
            0.0,
        )
        worst_ratio = max(worst_ratio, best_gap * 6.0 * horizon / 5.0)
    report(
        5,
        worst_ratio <= 1.0,
        f"best averaged gap stays below 5/(6T) at T in {{10,..,1e4}} "
        f"(worst fraction of the envelope: {worst_ratio:.3f})",
    )


def test_criterion_6_window_accounting():
    suite = windows_suite()
    check = suite.checks[0]
    report(6, check.passed, f"window statistics exact on {check.detail}, mismatches {check.worst:.0f}")


def _wald_cases():
    stationary = Instance(
        [Arm(ConstantCurve(v), BernoulliLaw()) for v in (0.6, 0.5, 0.3)], 1000
    )
    rising = random_rising_instance(1000, num_arms=15, seed=12)
    pair = lower_bound_instances(4, 10, 1000)
    noisy = Instance(
        [
            Arm(TabulatedCurve([min(0.2 + n / 400, 0.8) for n in range(1000)]),
                BoundedUniformLaw(half_width=0.1)),
            Arm(ConstantCurve(0.5), BoundedUniformLaw(half_width=0.1)),
        ],
        1000,
    )
    return [
        (stationary, PolicyConfig(kind="beta_swts")),
        (rising, PolicyConfig(kind="beta_swts", forced_pulls=20)),
        (pair.base, PolicyConfig(kind="gauss_swgts", forced_pulls=1)),
        (noisy, PolicyConfig(kind="sw_ucb")),
    ]


def test_criterion_7_per_run_wald_inequality():
    violations = 0
    total = 0
    for case_index, (inst, cfg) in enumerate(_wald_cases()):
        for r in range(250):
            record = run_single(inst, cfg, seed=1_000_000 * case_index + r)
            total += 1
            if record.final_regret > wald_regret_bound(inst, record.pull_counts) + 1e-9:
                violations += 1
    report(
        7,
        total == 1000 and violations == 0,
        f"trajectory regret below its pull-count bound in {total}/1000 runs, "
        f"{violations} violations",
    )


def test_criterion_8_stationary_sanity():
    inst = Instance(
        [Arm(ConstantCurve(0.6), BernoulliLaw()), Arm(ConstantCurve(0.5), BernoulliLaw())],
        10_000,
    )
    start = time.time()
    agg = run_batch(inst, PolicyConfig(kind="beta_swts"), runs=50, master_seed=20240801)
    elapsed = time.time() - start
    final = float(agg.mean_regret[-1])
    half_idx = int(np.searchsorted(agg.grid, 5000))
    half = float(agg.mean_regret[half_idx])
    sublinear = (final - half) < 0.5 * half
    ok = final < 80.0 and sublinear and elapsed < 30.0
    report(
        8,
        ok,
        f"Beta-TS on 0.6/0.5: mean regret {final:.1f} < 80, late growth "
        f"{final - half:.1f} < {0.5 * half:.1f}, {elapsed:.1f}s < 30s",
    )


def test_criterion_9_forced_exploration_sensitivity():
    horizon = 20_000
    riser = LinearCappedCurve(slope=Fraction(1, 4000), cap=Fraction(9, 10), offset=1)
    flat = LinearCappedCurve(slope=Fraction(1, 4), cap=Fraction(1, 4), offset=0)
    inst = Instance([Arm(riser, BernoulliLaw()), Arm(flat, BernoulliLaw())], horizon)
    complexity = sigma_complexity(inst).overall
    assert 1900 <= complexity <= 2100, f"design target missed: sigma_mu = {complexity}"

    grid = [0, 250, 500, 1000, 2000, 4000]
    batches = sweep_batches(
        inst, PolicyConfig(kind="beta_swts"), "forced_pulls", grid, runs=20, master_seed=777
    )
    aggregates = run_batches(inst, batches, parallelism=8, stride=horizon)
    means = [float(agg.mean_regret[-1]) for agg in aggregates]
    stds = [float(agg.std_regret[-1]) for agg in aggregates]
    knee = int(np.argmin(means))
    # flatness below the knee: run-to-run noise plus the deterministic
    # forced-exploration overhead of a deceptive ramp, which stays below
    # half a percent per step and is dwarfed by the knee-scale drop
    trend_ok = True
    for k in range(knee):
        margin = max(2.0 * (stds[k] + stds[k + 1]), 0.005 * means[k])
        if means[k + 1] > means[k] + margin:
            trend_ok = False
    improvement_ok = means[knee] <= 0.8 * means[0]
    report(
        9,
        trend_ok and improvement_ok,
        f"forced-pull sweep on a sigma~{int(complexity)} ramp: regret "
        f"{[round(m) for m in means]}, knee at {grid[knee]}, best/none = "
        f"{means[knee] / means[0]:.2f} <= 0.80, flat-within-noise below the knee: {trend_ok}",
    )


def test_criterion_9b_fifteen_arm_smoke(tmp_path):
    horizon = 20_000
    inst = random_rising_instance(horizon, num_arms=15, seed=99)
    config = {
        "instance": inst.to_dict(),
        "horizon": horizon,
        "runs": 20,
        "master_seed": 123,
        "stride": 100,
        "policies": [
            {"kind": "beta_swts", "label": "beta_ts"},
            {"kind": "beta_swts", "label": "et_beta_ts", "forced_pulls": 250},
            {"kind": "gauss_swgts", "label": "gauss_swts", "forced_pulls": 1, "window": 4000},
            {"kind": "sw_ucb", "label": "sw_ucb"},
        ],
    }
    config_path = tmp_path / "fifteen.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    start = time.time()
    code = main(["run", "--config", str(config_path), "--out", str(out), "--threads", "8"])
    elapsed = time.time() - start
    csvs = sorted(p.name for p in out.glob("*.csv"))
    ok = code == 0 and len(csvs) == 4 and elapsed < 300.0
    report(
        9,
        ok,
        f"15-arm smoke run (4 policies, 20 runs, T=2e4) emitted {len(csvs)} CSVs "
        f"in {elapsed:.0f}s < 300s",
    )


def test_criterion_10_byte_identical_outputs(tmp_path):
    instance_doc = {
        "horizon": 2000,
        "arms": [
            {"family": "linear_capped", "params": {"slope": 0.002, "cap": 0.7, "offset": 1.0},
             "law": "bernoulli", "law_params": {}},
            {"family": "constant", "params": {"value": 0.4}, "law": "bernoulli", "law_params": {}},
        ],
    }
    config = {
        "instance": instance_doc,
        "runs": 6,
        "master_seed": 31337,
        "policies": [
            {"kind": "beta_swts", "label": "ts"},
            {"kind": "ucb1", "label": "ucb"},
        ],
        "sweep": {"axis": "forced_pulls", "grid": [0, 50]},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    ok, summary = True, []
    for command in ("run", "sweep"):
        outputs = {}
        for name, threads in (("first", 1), ("second", 1), ("eight", 8)):
            out = tmp_path / command / name
            argv = [command, "--config", str(config_path), "--out", str(out), "--threads", str(threads)]
            assert main(argv) == 0
            outputs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        identical_rerun = outputs["first"] == outputs["second"]
        identical_threads = outputs["first"] == outputs["eight"]
        ok &= identical_rerun and identical_threads
        summary.append(
            f"{command}: repeat byte-identical: {identical_rerun}, threads 1 vs 8 "
            f"byte-identical: {identical_threads} ({len(outputs['first'])} files)"
        )
    report(10, ok, "; ".join(summary))
