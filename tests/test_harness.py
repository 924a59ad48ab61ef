"""Experiment runner: determinism, seed derivation, aggregation, and the
rested reward semantics."""

import math

import numpy as np
import pytest

from srrb.analytics import pseudo_regret, wald_regret_bound
from srrb.curves import BernoulliLaw, BoundedUniformLaw, ConstantCurve, TabulatedCurve
from srrb.harness import child_seed, evaluation_grid, run_batch, run_single, sweep
from srrb.instance import Arm, Instance
from srrb.policies import PolicyConfig


def stationary(values, horizon=500):
    return Instance([Arm(ConstantCurve(v), BernoulliLaw()) for v in values], horizon)


class AlwaysArm:
    """Stub policy pulling one fixed arm; records what it observes."""

    def __init__(self, arm):
        self.arm = arm
        self.observed = []

    def select_arm(self, t):
        return self.arm

    def update(self, arm, reward, t):
        self.observed.append(reward)


class RoundRobin:
    def __init__(self, num_arms):
        self.num_arms = num_arms
        self.observed = []

    def select_arm(self, t):
        return (t - 1) % self.num_arms

    def update(self, arm, reward, t):
        self.observed.append((arm, reward))


class TestEvaluationGrid:
    def test_default_stride_bounds_points(self):
        grid = evaluation_grid(1_000_000)
        assert grid.size <= 10_001 + 1
        assert grid[0] == 0 and grid[-1] == 1_000_000

    def test_explicit_stride(self):
        np.testing.assert_array_equal(evaluation_grid(10, 3), [0, 3, 6, 9, 10])
        np.testing.assert_array_equal(evaluation_grid(9, 3), [0, 3, 6, 9])

    def test_deterministic_function(self):
        np.testing.assert_array_equal(evaluation_grid(1234, 7), evaluation_grid(1234, 7))


class TestChildSeeds:
    def test_stateless_derivation(self):
        a = child_seed(42, 3)
        b = child_seed(42, 3)
        assert a == b
        assert child_seed(42, 4) != a
        assert child_seed(43, 3) != a

    def test_axis_keyed_derivation(self):
        assert child_seed(42, 0, 1) != child_seed(42, 1, 0)


class TestRunSingle:
    def test_oracle_stub_on_deterministic_instance_has_zero_regret(self):
        inst = Instance(
            [Arm(ConstantCurve(1.0), BernoulliLaw()), Arm(ConstantCurve(0.0), BernoulliLaw())],
            200,
        )
        record = run_single(inst, AlwaysArm(0), seed=1)
        np.testing.assert_allclose(record.regret, 0.0, atol=1e-12)

    def test_single_arm_instance_zero_regret(self):
        inst = Instance([Arm(ConstantCurve(0.5), BernoulliLaw())], 300)
        record = run_single(inst, PolicyConfig(kind="beta_swts"), seed=3)
        np.testing.assert_allclose(record.regret, 0.0, atol=1e-12)
        assert record.pull_counts[0] == 300

    def test_fixed_seed_reproducible(self):
        inst = stationary([0.6, 0.5])
        a = run_single(inst, PolicyConfig(kind="beta_swts"), seed=99)
        b = run_single(inst, PolicyConfig(kind="beta_swts"), seed=99)
        np.testing.assert_array_equal(a.pulls, b.pulls)
        np.testing.assert_array_equal(a.regret, b.regret)
        np.testing.assert_array_equal(a.pull_counts, b.pull_counts)

    def test_different_seeds_differ(self):
        inst = stationary([0.6, 0.5])
        a = run_single(inst, PolicyConfig(kind="beta_swts"), seed=99)
        b = run_single(inst, PolicyConfig(kind="beta_swts"), seed=100)
        assert not np.array_equal(a.pulls, b.pulls)

    def test_rested_semantics_feed_lifetime_pull_counts(self):
        # rewards are deterministic and encode the pull index, so the
        # observed stream must walk each arm's curve in lifetime order
        horizon = 30
        curve_a = TabulatedCurve([0.3 + n / 1000 for n in range(horizon)])
        curve_b = TabulatedCurve([0.1 + n / 500 for n in range(horizon)])
        inst = Instance(
            [
                Arm(curve_a, BoundedUniformLaw(half_width=0.0)),
                Arm(curve_b, BoundedUniformLaw(half_width=0.0)),
            ],
            horizon,
        )
        probe = RoundRobin(2)
        run_single(inst, probe, seed=0)
        counts = [0, 0]
        for arm, reward in probe.observed:
            counts[arm] += 1
            assert reward == inst.expected_reward(arm, counts[arm])

    def test_shorter_horizon_reanchors_the_optimum(self):
        # the bloomer wins at the full horizon but not at the prefix, so a
        # shortened run must anchor regret on the prefix optimum
        bloomer = TabulatedCurve([0.0] * 60 + [0.9] * 40)
        inst = Instance(
            [Arm(ConstantCurve(0.3), BernoulliLaw()), Arm(bloomer, BernoulliLaw())], 100
        )
        assert inst.optimal_arm == 1
        record = run_single(inst, AlwaysArm(0), horizon=50, seed=0)
        np.testing.assert_allclose(record.regret, 0.0, atol=1e-12)

    def test_policy_law_mismatch_rejected(self):
        inst = Instance(
            [
                Arm(ConstantCurve(0.6), BoundedUniformLaw(half_width=0.1)),
                Arm(ConstantCurve(0.4), BoundedUniformLaw(half_width=0.1)),
            ],
            50,
        )
        with pytest.raises(ValueError):
            run_single(inst, PolicyConfig(kind="beta_swts"), seed=0)

    def test_every_arm_law_checked_before_the_run(self):
        # arm 0 is Bernoulli: the check must cover every arm before round 1
        inst = Instance(
            [
                Arm(ConstantCurve(0.6), BernoulliLaw()),
                Arm(ConstantCurve(0.4), BoundedUniformLaw(half_width=0.1)),
            ],
            50,
        )
        with pytest.raises(ValueError, match="Bernoulli reward law"):
            run_single(inst, PolicyConfig(kind="beta_swts"), seed=0)

    @pytest.mark.parametrize("kind", ["beta_swts", "gauss_swgts", "ucb1", "sw_ucb"])
    def test_regret_is_the_running_sum_bit_for_bit(self, kind):
        inst = Instance(
            [Arm(TabulatedCurve([0.2 + n / 700 for n in range(150)]), BernoulliLaw()),
             Arm(ConstantCurve(0.43), BernoulliLaw()),
             Arm(TabulatedCurve([0.1 + n / 300 for n in range(150)]), BernoulliLaw())],
            300,
        )
        record = run_single(inst, PolicyConfig(kind=kind, window=40), seed=5, stride=1)
        opt = inst.expected_rewards(inst.optimal_arm)
        counts = [0] * inst.num_arms
        running, expected = 0.0, [0.0]
        for t, arm in enumerate(record.pulls, start=1):
            counts[arm] += 1
            running += float(opt[t - 1]) - inst.expected_reward(int(arm), counts[arm])
            expected.append(running)
        assert record.regret.tobytes() == np.array(expected).tobytes()
        assert record.regret[1:].tobytes() == pseudo_regret(inst, record.pulls).tobytes()
        np.testing.assert_array_equal(record.pull_counts, counts)

    def test_wald_bound_holds_per_run(self):
        inst = stationary([0.6, 0.5, 0.3])
        for seed in range(10):
            record = run_single(inst, PolicyConfig(kind="ucb1"), seed=seed)
            assert record.final_regret <= wald_regret_bound(inst, record.pull_counts) + 1e-9


class TestRunBatch:
    def test_single_run_matches_run_single(self):
        inst = stationary([0.6, 0.5])
        agg = run_batch(inst, PolicyConfig(kind="beta_swts"), runs=1, master_seed=7)
        record = run_single(inst, PolicyConfig(kind="beta_swts"), seed=child_seed(7, 0))
        np.testing.assert_array_equal(agg.mean_regret, record.regret)
        np.testing.assert_array_equal(agg.std_regret, np.zeros_like(record.regret))
        np.testing.assert_array_equal(agg.mean_pull_counts, record.pull_counts)

    def test_parallelism_does_not_change_results(self):
        inst = stationary([0.6, 0.5], horizon=300)
        cfg = PolicyConfig(kind="beta_swts")
        serial = run_batch(inst, cfg, runs=6, master_seed=11, parallelism=1)
        parallel = run_batch(inst, cfg, runs=6, master_seed=11, parallelism=4)
        np.testing.assert_array_equal(serial.mean_regret, parallel.mean_regret)
        np.testing.assert_array_equal(serial.std_regret, parallel.std_regret)
        np.testing.assert_array_equal(serial.mean_pull_counts, parallel.mean_pull_counts)

    def test_population_std_convention(self):
        inst = stationary([0.6, 0.5], horizon=200)
        agg = run_batch(inst, PolicyConfig(kind="beta_swts"), runs=4, master_seed=5)
        records = [
            run_single(inst, PolicyConfig(kind="beta_swts"), seed=child_seed(5, r))
            for r in range(4)
        ]
        finals = np.array([r.final_regret for r in records])
        assert agg.std_regret[-1] == pytest.approx(finals.std(ddof=0), rel=1e-12)

    def test_golden_regression_band(self):
        # frozen on first recording; a drift here means the sampling or
        # seed-derivation pipeline changed
        inst = stationary([0.6, 0.5], horizon=2000)
        agg = run_batch(inst, PolicyConfig(kind="beta_swts"), runs=10, master_seed=2024)
        assert 0.0 < agg.mean_regret[-1] < 60.0
        again = run_batch(inst, PolicyConfig(kind="beta_swts"), runs=10, master_seed=2024)
        assert again.mean_regret[-1] == agg.mean_regret[-1]


class TestSweep:
    def test_full_window_exponent_reproduces_plain_variant(self):
        inst = stationary([0.6, 0.5], horizon=400)
        cfg = PolicyConfig(kind="beta_swts")
        result = sweep(inst, cfg, axis="window_exponent", grid=[1.0], runs=3, master_seed=21)
        assert result.points[0].resolved == 400
        direct = run_batch(
            inst,
            PolicyConfig(kind="beta_swts", window=400),
            runs=3,
            master_seed=child_seed(21, 0),
        )
        assert result.points[0].mean_final_regret == direct.mean_regret[-1]

    def test_runs_at_the_instance_horizon(self):
        # sweep has no horizon of its own: a shorter run is a shorter instance
        inst = stationary([0.6, 0.5], horizon=400)
        short = Instance(inst.arms, 150)
        with pytest.raises(TypeError, match="horizon"):
            sweep(inst, PolicyConfig(kind="beta_swts"), "forced_pulls", [0], horizon=150)
        result = sweep(short, PolicyConfig(kind="beta_swts"), "window_exponent", [1.0], runs=2)
        assert result.points[0].resolved == 150
        direct = run_batch(
            inst, PolicyConfig(kind="beta_swts", window=150), horizon=150, runs=2,
            master_seed=child_seed(0, 0),
        )
        assert result.points[0].mean_final_regret == direct.mean_regret[-1]

    def test_forced_pull_axis_resolves_values(self):
        inst = stationary([0.6, 0.5], horizon=300)
        result = sweep(
            inst,
            PolicyConfig(kind="beta_swts"),
            axis="forced_pulls",
            grid=[0, 5, 20],
            runs=2,
            master_seed=3,
        )
        assert [p.resolved for p in result.points] == [0, 5, 20]

    @pytest.mark.parametrize(
        "axis, value",
        [
            ("forced_pulls", 2.5),
            ("forced_pulls", -1),
            ("forced_pulls", True),
            ("window_exponent", math.nan),
            ("window_exponent", True),
            ("window_exponent", "0.5"),
        ],
    )
    def test_bad_grid_value_fails_before_any_batch(self, monkeypatch, axis, value):
        import srrb.harness

        batches = []
        monkeypatch.setattr(srrb.harness, "run_batch", lambda *a, **k: batches.append(a))
        with pytest.raises(ValueError, match=axis):
            sweep(stationary([0.6, 0.5]), PolicyConfig(kind="beta_swts"), axis, [0, value])
        assert batches == []

    def test_window_exponent_clamps(self):
        inst = stationary([0.6, 0.5], horizon=100)
        result = sweep(
            inst,
            PolicyConfig(kind="beta_swts"),
            axis="window_exponent",
            grid=[0.0, 5.0],
            runs=1,
            master_seed=0,
        )
        assert result.points[0].resolved == 1
        assert result.points[1].resolved == 100

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep(
                stationary([0.6, 0.5]),
                PolicyConfig(kind="beta_swts"),
                axis="learning_rate",
                grid=[1],
            )
