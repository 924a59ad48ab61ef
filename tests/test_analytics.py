"""Gap/complexity analytics and the bound-term calculators, each checked
against a brute-force or closed-form oracle."""

import math

import numpy as np
import pytest

from srrb.analytics import (
    build_report,
    gaps,
    growth_index,
    pull_bound_terms,
    sigma_complexity,
    windowed_sigma_complexity,
)
from srrb.constructions import (
    lower_bound_instances,
    persistent_gap_pair,
    random_rising_instance,
    vanishing_gap_pair,
)
from srrb.curves import (
    BernoulliLaw,
    BoundedUniformLaw,
    ConstantCurve,
    TabulatedCurve,
)
from srrb.distmath import binomial_pmf, binomial_pmfs, pb_pmf, tv_distance
from srrb.harness import run_single, wald_regret_bound
from srrb.instance import Arm, Instance
from test_harness import Replay


def stationary(values, horizon=100):
    return Instance([Arm(ConstantCurve(v), BernoulliLaw()) for v in values], horizon)


def replayed_regret(inst, pulls):
    """The regret trajectory of ``run_single`` pulling ``pulls``, from
    round 1 on."""
    return run_single(inst, Replay(pulls), stride=1).regret[1:]


def rising_toy(horizon=40):
    """Two-arm Bernoulli toy: a saturating riser against a constant."""
    ramp = TabulatedCurve([min(0.1 + 0.04 * n, 0.8) for n in range(horizon)])
    return Instance([Arm(ramp, BernoulliLaw()), Arm(ConstantCurve(0.3), BernoulliLaw())], horizon)


class TestGaps:
    def test_stationary_gaps(self):
        inst = stationary([0.6, 0.5])
        for n, m in [(1, 1), (3, 70), (100, 100)]:
            assert gaps(inst, 1, n, m) == (pytest.approx(0.1), pytest.approx(0.1))

    def test_clamped_at_zero(self):
        inst = rising_toy()
        gap, avg_gap = gaps(inst, 1, 1, 40)  # riser at first pull is below 0.3
        assert gap == 0.0
        assert avg_gap == 0.0

    def test_optimal_arm_rejected(self):
        inst = stationary([0.6, 0.5])
        with pytest.raises(ValueError):
            gaps(inst, 0, 1, 1)

    def test_persistent_pair_early_average_gap(self):
        # optimal arm's two-pull average already clears the other arm's
        # ceiling of 1/2 at every horizon
        for horizon in (10, 1000):
            inst = persistent_gap_pair(horizon, exponent=0.5)
            assert inst.avg_expected_reward(0, 2) > 0.5
            assert inst.avg_expected_reward(1, horizon) < 0.5
            _, avg_gap = gaps(inst, 1, 2, horizon)
            assert avg_gap > 0.0


class TestSigma:
    def test_stationary_distinct_is_one(self):
        report = sigma_complexity(stationary([0.6, 0.5, 0.2]))
        assert report.per_arm == {1: 1, 2: 1}
        assert report.overall == 1

    def test_minimal_witness_property(self):
        inst = rising_toy()
        report = sigma_complexity(inst)
        star = inst.optimal_arm
        for i, sig in report.per_arm.items():
            target = inst.avg_expected_reward(i, inst.horizon)
            assert inst.avg_expected_reward(star, int(sig)) > target
            if sig >= 2:
                assert inst.avg_expected_reward(star, int(sig) - 1) <= target

    def test_brute_force_scan(self):
        inst = rising_toy()
        report = sigma_complexity(inst)
        star = inst.optimal_arm
        for i in range(inst.num_arms):
            if i == star:
                continue
            target = inst.avg_expected_reward(i, inst.horizon)
            expected = next(
                l
                for l in range(1, inst.horizon + 1)
                if inst.avg_expected_reward(star, l) > target
            )
            assert report.per_arm[i] == expected

    def test_class_membership_is_monotone(self):
        overall = sigma_complexity(rising_toy()).overall
        for budget in range(int(overall), int(overall) + 10):
            assert overall <= budget  # membership survives larger budgets

    def test_lower_bound_pair_within_budget(self):
        pair = lower_bound_instances(5, 12, 200)
        assert sigma_complexity(pair.base).overall <= 12 <= 2 * 12 + 2
        assert sigma_complexity(pair.boosted).overall <= 12

    def test_persistent_pair_sigma(self):
        # the strict definition gives 1 (the one-pull average is exactly
        # 1/2, strictly above the other arm's sub-1/2 average); 2 is the
        # natural reference choice with a horizon-free gap
        for horizon in (50, 5000):
            report = sigma_complexity(persistent_gap_pair(horizon, exponent=0.5))
            assert report.overall == 1
            assert report.overall <= 2


class TestWindowedSigma:
    def test_full_window_stationary(self):
        inst = stationary([0.6, 0.5], horizon=80)
        report = windowed_sigma_complexity(inst, 80)
        assert report.per_arm_sigma == {1: 80}
        assert report.per_arm_gap[1] == pytest.approx(0.1, rel=1e-12)

    def test_window_of_one_matches_pointwise_scan(self):
        inst = rising_toy()
        report = windowed_sigma_complexity(inst, 1)
        star = inst.optimal_arm
        for i, sig in report.per_arm_sigma.items():
            target = inst.expected_reward(i, inst.horizon)
            expected = next(
                (n for n in range(1, inst.horizon + 1) if inst.expected_reward(star, n) > target),
                math.inf,
            )
            assert sig == expected

    def test_unreachable_target_is_infinite(self):
        # the optimal arm (by average) never reaches the late bloomer's
        # final value, so the windowed threshold does not exist
        bloomer = TabulatedCurve([0.0] * 90 + [0.9] * 10)
        inst = Instance(
            [Arm(ConstantCurve(0.6), BernoulliLaw()), Arm(bloomer, BernoulliLaw())], 100
        )
        assert inst.optimal_arm == 0
        report = windowed_sigma_complexity(inst, 10)
        assert report.per_arm_sigma[1] == math.inf
        assert math.isnan(report.per_arm_gap[1])

    def test_gap_evaluated_at_witness(self):
        inst = rising_toy()
        for tau in (1, 5, 40):
            report = windowed_sigma_complexity(inst, tau)
            star = inst.optimal_arm
            for i, sig in report.per_arm_sigma.items():
                if math.isinf(sig):
                    continue
                # mean of mu_star over the tau pulls ending at sig, recounted
                window = inst.expected_rewards(star)[int(sig) - tau : int(sig)]
                expected = math.fsum(window) / tau - inst.expected_reward(i, inst.horizon)
                assert report.per_arm_gap[i] == pytest.approx(expected, rel=1e-12)
                assert report.per_arm_gap[i] > 0.0


class TestGrowthIndex:
    def test_stationary_is_zero(self):
        assert growth_index(stationary([0.6, 0.5]), 50, 0.5) == 0.0

    def test_m_must_lie_in_two_to_the_horizon(self):
        inst = stationary([0.6, 0.5])
        for m in (1, inst.horizon + 1):
            with pytest.raises(ValueError, match="m must be in"):
                growth_index(inst, m, 0.5)
        assert growth_index(inst, inst.horizon, 0.0) == inst.horizon - 1

    def test_zero_exponent_counts_steps(self):
        # 0**0 = 1 by convention, so a stationary instance counts m - 1
        assert growth_index(stationary([0.6, 0.5]), 50, 0.0) == 49

    def test_linear_ramp(self):
        m = 20
        ramp = TabulatedCurve([n / m for n in range(1, m + 1)])
        inst = Instance([Arm(ramp, BernoulliLaw())], m)
        assert growth_index(inst, m, 1.0) == pytest.approx((m - 1) / m, rel=1e-12)

    def test_max_over_arms_by_direct_sum(self):
        inst = rising_toy()
        q = 0.7
        m = 30
        direct = 0.0
        for l in range(1, m):
            step = max(
                inst.expected_reward(i, l + 1) - inst.expected_reward(i, l)
                for i in range(inst.num_arms)
            )
            direct += step**q if step > 0 else 0.0
        assert growth_index(inst, m, q) == pytest.approx(direct, rel=1e-12)

    def test_fast_riser_pair_is_bounded(self):
        # growth index stays below 3/4 + 1/(q log 2) for every window
        for horizon in (64, 512):
            inst = vanishing_gap_pair(horizon)
            for q in (0.25, 0.5, 0.75, 1.0):
                assert growth_index(inst, horizon, q) <= 0.75 + 1.0 / (q * math.log(2.0))


class TestPseudoRegret:
    def test_always_optimal_is_zero(self):
        inst = rising_toy()
        trajectory = replayed_regret(inst, [inst.optimal_arm] * inst.horizon)
        np.testing.assert_allclose(trajectory, 0.0, atol=1e-12)

    def test_stationary_constant_gap(self):
        inst = stationary([0.6, 0.5], horizon=50)
        trajectory = replayed_regret(inst, [1] * 50)
        np.testing.assert_allclose(trajectory, 0.1 * np.arange(1, 51), rtol=1e-12)

    def test_alternating_matches_step_recomputation(self):
        pair = lower_bound_instances(3, 8, 60)
        inst = pair.base
        pulls = [t % 3 for t in range(60)]
        trajectory = replayed_regret(inst, pulls)
        # oracle: recompute both sums from scratch at every round
        counts = [0] * 3
        got = []
        for arm in pulls:
            counts[arm] += 1
            got.append(inst.expected_reward(arm, counts[arm]))
        star = inst.optimal_arm
        for t in range(1, 61):
            best = sum(inst.expected_reward(star, s) for s in range(1, t + 1))
            assert trajectory[t - 1] == pytest.approx(best - sum(got[:t]), abs=1e-10)

    def test_final_value_uses_horizon_average_identity(self):
        inst = rising_toy()
        pulls = [1] * inst.horizon
        trajectory = replayed_regret(inst, pulls)
        star = inst.optimal_arm
        lhs = inst.horizon * inst.avg_expected_reward(star, inst.horizon) - sum(
            inst.expected_reward(1, n) for n in range(1, inst.horizon + 1)
        )
        assert trajectory[-1] == pytest.approx(lhs, rel=1e-12)

    def test_invalid_arm_rejected(self):
        # a whole horizon of pulls, so only arm 2 of two can raise
        with pytest.raises(IndexError):
            run_single(stationary([0.6, 0.5]), Replay([0, 2] * 50))


class TestWaldBound:
    def test_no_suboptimal_pulls(self):
        inst = stationary([0.6, 0.5])
        assert wald_regret_bound(inst, [100, 0]) == 0.0

    def test_stationary_exact_value(self):
        inst = stationary([0.6, 0.5], horizon=200)
        assert wald_regret_bound(inst, [100, 100]) == pytest.approx(10.0, rel=1e-12)

    def test_dominates_trajectories(self):
        rng = np.random.default_rng(3)
        pair = lower_bound_instances(4, 10, 120)
        for inst in (pair.base, pair.boosted, rising_toy(120)):
            for _ in range(25):
                pulls = rng.integers(0, inst.num_arms, size=inst.horizon).tolist()
                trajectory = replayed_regret(inst, pulls)
                counts = np.bincount(pulls, minlength=inst.num_arms)
                assert trajectory[-1] <= wald_regret_bound(inst, counts) + 1e-9

    def test_stationary_equality(self):
        inst = stationary([0.6, 0.5], horizon=60)
        pulls = [1] * 25 + [0] * 35
        assert replayed_regret(inst, pulls)[-1] == pytest.approx(
            wald_regret_bound(inst, [35, 25]), rel=1e-12
        )

    def test_count_validation(self):
        inst = stationary([0.6, 0.5], horizon=10)
        with pytest.raises(ValueError):
            wald_regret_bound(inst, [10, 10])


class TestBoundTerms:
    def test_stationary_tv_term_vanishes(self):
        # dyadic means keep the cached averages exactly constant
        inst = stationary([0.5, 0.25], horizon=100)
        terms = pull_bound_terms(inst, sigma=20, forced=0, flavor="beta")
        for _, term_ii, term_iii in terms.per_arm.values():
            assert term_iii == 0.0
            assert term_ii > 0.0
        # non-dyadic means leave only prefix-average rounding residue
        inst = stationary([0.6, 0.5], horizon=100)
        terms = pull_bound_terms(inst, sigma=20, forced=0, flavor="beta")
        for _, _, term_iii in terms.per_arm.values():
            assert term_iii <= 1e-10

    def test_forced_equal_sigma_empty_sum(self):
        inst = rising_toy()
        sigma = int(sigma_complexity(inst).overall) + 3
        terms = pull_bound_terms(inst, sigma=sigma, forced=sigma, flavor="beta")
        for _, _, term_iii in terms.per_arm.values():
            assert term_iii == 0.0

    def test_beta_tv_term_matches_direct_summation(self):
        inst = rising_toy()
        sigma = 20
        terms = pull_bound_terms(inst, sigma=sigma, forced=0, flavor="beta", eps=0.5)
        star = inst.optimal_arm
        y = inst.avg_expected_reward(star, sigma)
        direct = 0.0
        for j in range(1, sigma):
            tv = tv_distance(
                binomial_pmf(j, inst.avg_expected_reward(star, j)), binomial_pmf(j, y)
            )
            direct += tv / (1.0 - y) ** (j + 1)
        for _, _, term_iii in terms.per_arm.values():
            assert term_iii == pytest.approx(direct, rel=1e-10)

    def test_beta_term_ii_formula(self):
        from srrb.distmath import bernoulli_kl

        inst = rising_toy()
        sigma = 25
        eps = 0.3
        terms = pull_bound_terms(inst, sigma=sigma, forced=2, flavor="beta", eps=eps)
        star = inst.optimal_arm
        y = inst.avg_expected_reward(star, sigma)
        for i, (term_i, term_ii, _) in terms.per_arm.items():
            avg_i = inst.avg_expected_reward(i, inst.horizon)
            expected = (1 + eps) * math.log(inst.horizon) / bernoulli_kl(avg_i, y) + 1 / eps**2
            assert term_i == 2.0
            assert term_ii == pytest.approx(expected, rel=1e-12)

    def test_gauss_tv_term_matches_direct_summation(self):
        inst = rising_toy()
        sigma = 15
        scale = 1.0
        terms = pull_bound_terms(
            inst, sigma=sigma, forced=0, flavor="gauss", precision_scale=scale
        )
        star = inst.optimal_arm
        y = inst.avg_expected_reward(star, sigma)
        mus = [inst.expected_reward(star, n) for n in range(1, sigma)]
        direct = 0.0
        for j in range(1, sigma):
            tv = tv_distance(pb_pmf(mus[:j]), binomial_pmf(j, y))
            direct += tv / math.erfc(math.sqrt(scale * j / 2.0) * y)
        for _, _, term_iii in terms.per_arm.values():
            assert term_iii == pytest.approx(direct, rel=1e-10)

    def test_gauss_term_ii_formula(self):
        inst = rising_toy()
        sigma = 15
        terms = pull_bound_terms(inst, sigma=sigma, flavor="gauss", precision_scale=0.5)
        star = inst.optimal_arm
        y = inst.avg_expected_reward(star, sigma)
        for i, (_, term_ii, _) in terms.per_arm.items():
            gap = y - inst.avg_expected_reward(i, inst.horizon)
            expected = math.log(inst.horizon * gap**2 + math.e**6) / (0.5 * gap**2)
            assert term_ii == pytest.approx(expected, rel=1e-12)

    def test_sigma_below_complexity_rejected(self):
        inst = rising_toy()
        overall = int(sigma_complexity(inst).overall)
        with pytest.raises(ValueError):
            pull_bound_terms(inst, sigma=overall - 1, flavor="beta")

    def test_beta_flavor_requires_bernoulli(self):
        inst = Instance(
            [
                Arm(ConstantCurve(0.6), BoundedUniformLaw(half_width=0.1)),
                Arm(ConstantCurve(0.4), BoundedUniformLaw(half_width=0.1)),
            ],
            50,
        )
        with pytest.raises(ValueError):
            pull_bound_terms(inst, sigma=10, flavor="beta")

    def test_gauss_non_bernoulli_flagged_trivial(self):
        inst = Instance(
            [
                Arm(ConstantCurve(0.6), BoundedUniformLaw(half_width=0.1)),
                Arm(ConstantCurve(0.4), BoundedUniformLaw(half_width=0.1)),
            ],
            50,
        )
        terms = pull_bound_terms(inst, sigma=5, forced=0, flavor="gauss", precision_scale=0.5)
        assert terms.tv_is_trivial
        y = inst.avg_expected_reward(0, 5)
        direct = sum(
            1.0 / math.erfc(math.sqrt(0.5 * j / 2.0) * y) for j in range(1, 5)
        )
        for _, _, term_iii in terms.per_arm.values():
            assert term_iii == pytest.approx(direct, rel=1e-12)

    # The two-arm Bernoulli instance of perfbench/inputs/instance.json, and
    # one whose low reference mean keeps the Beta term finite up to sigma.
    BENCH_DOC = {
        "horizon": 5000,
        "arms": [
            {"family": "linear_capped", "params": {"slope": 0.001, "cap": 0.8, "offset": 1.0},
             "law": "bernoulli", "law_params": {}},
            {"family": "linear_capped", "params": {"slope": 0.4, "cap": 0.4, "offset": 0.0},
             "law": "bernoulli", "law_params": {}},
        ],
    }
    LOW_DOC = {
        "horizon": 2000,
        "arms": [
            {"family": "linear_capped", "params": {"slope": 0.001, "cap": 0.3, "offset": 0.0},
             "law": "bernoulli", "law_params": {}},
            {"family": "constant", "params": {"value": 0.1}, "law": "bernoulli", "law_params": {}},
        ],
    }

    @pytest.mark.parametrize(
        "doc, sigma, flavor, expected",
        [
            ("BENCH_DOC", 1200, "gauss", "0x1.c35cbe6ef8adfp+249"),
            ("BENCH_DOC", 1200, "beta", "inf"),
            ("BENCH_DOC", 1000, "gauss", "0x1.124de68c7ffb8p+170"),
            ("LOW_DOC", 1200, "beta", "0x1.3b26cbfd98c44p+521"),
            ("LOW_DOC", 1200, "gauss", "0x1.0719b03313b9fp+63"),
        ],
    )
    def test_tv_term_bits_pinned(self, doc, sigma, flavor, expected):
        # sigma past 1000 takes the reference pmfs through the exact anchor
        inst = Instance.from_dict(getattr(self, doc))
        terms = pull_bound_terms(inst, sigma=sigma, flavor=flavor)
        assert [term_iii.hex() for _, _, term_iii in terms.per_arm.values()] == [expected]

    # a linear_capped arm against a constant, whose Beta term overflows near j = 1400
    CAP_DOC = {
        "horizon": 4000,
        "arms": [
            {"family": "linear_capped", "params": {"slope": 0.001, "cap": 0.45},
             "law": "bernoulli", "law_params": {}},
            {"family": "constant", "params": {"value": 0.2}, "law": "bernoulli", "law_params": {}},
        ],
    }

    @staticmethod
    def walked_beta_tv_term(inst, sigma, forced):
        """Term (iii) of the Beta flavor by the plain walk: every summand
        from j = max(forced, 1) up, stopping at the first that overflows."""
        star = inst.optimal_arm
        y_ref = inst.avg_expected_reward(star, sigma)
        log_one_minus = math.log1p(-y_ref) if y_ref < 1.0 else -math.inf
        start = max(forced, 1)
        total = 0.0
        references = binomial_pmfs(y_ref, start, sigma)
        for j in range(start, sigma):
            tv = tv_distance(binomial_pmf(j, inst.avg_expected_reward(star, j)), next(references))
            if tv == 0.0:
                continue
            log_term = math.log(tv) - (j + 1) * log_one_minus
            if log_term > 709.0:
                return math.inf
            total += math.exp(log_term)
        return total

    @staticmethod
    def exit_cases():
        """(name, instance, sigma, forced); a sigma of None is the
        instance's complexity index, the smallest sigma allowed."""
        cases = []
        for name, inst, sigmas in [
            ("rising_toy", rising_toy(1000), (None, 40, 300, 500, 1000)),
            ("BENCH_DOC", Instance.from_dict(TestBoundTerms.BENCH_DOC), (None, 900, 1000)),
            ("LOW_DOC", Instance.from_dict(TestBoundTerms.LOW_DOC), (None, 600, 1000)),
            ("CAP_DOC", Instance.from_dict(TestBoundTerms.CAP_DOC), (500, 1500, 2000)),
            ("random seed 0", random_rising_instance(1000, 3, seed=0), (None, 300, 600, 1000)),
            ("random seed 3", random_rising_instance(1000, 3, seed=3), (None, 300, 600, 1000)),
        ]:
            low = int(sigma_complexity(inst).overall)
            forced_grid = (0, 2) if name.startswith("random") else (0,)
            cases += [
                (name, inst, sigma or low, forced) for sigma in sigmas for forced in forced_grid
            ]
        cases.append(("rising_toy forced = sigma", rising_toy(1000), 500, 500))
        return cases

    def test_beta_exit_matches_the_walk(self):
        # both overflowing (inf) and finite sums occur; every one keeps its bits
        seen = set()
        for name, inst, sigma, forced in self.exit_cases():
            terms = pull_bound_terms(inst, sigma=sigma, forced=forced, flavor="beta")
            walked = self.walked_beta_tv_term(inst, sigma, forced)
            got = {term_iii.hex() for _, _, term_iii in terms.per_arm.values()}
            assert got == {walked.hex()}, (name, sigma, forced)
            seen.add(math.isinf(walked))
        assert seen == {False, True}

    def test_overflowing_beta_term_builds_two_pmfs(self, monkeypatch):
        import srrb.distmath as distmath

        built = []
        real = distmath._pmf_from_anchor

        def counting(*args):
            built.append(args[0])
            return real(*args)

        monkeypatch.setattr(distmath, "_pmf_from_anchor", counting)
        inst = Instance.from_dict(self.BENCH_DOC)
        terms = pull_bound_terms(inst, sigma=1200, flavor="beta")
        assert [term_iii for _, _, term_iii in terms.per_arm.values()] == [math.inf]
        assert len(built) <= 2

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_precision_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="precision_scale"):
            pull_bound_terms(rising_toy(), sigma=20, flavor="gauss", precision_scale=scale)


class TestReport:
    def test_full_report_roundtrips_to_dict(self):
        inst = rising_toy()
        report = build_report(inst, tau_list=(1, 10), bound_sigma=20)
        doc = report.to_dict()
        assert doc["optimal_arm"] == inst.optimal_arm
        assert set(doc["sigma"]) == {"1"}
        assert len(doc["windowed"]) == 2
        assert set(doc["growth_index"]) == {"0.25", "0.5", "0.75", "1.0"}
        assert doc["bound_terms"]["flavor"] == "beta"
