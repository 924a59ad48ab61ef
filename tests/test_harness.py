"""Experiment runner: determinism, seed derivation, aggregation, and the
rested reward semantics."""

import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from srrb.curves import (
    BernoulliLaw,
    BoundedUniformLaw,
    ConstantCurve,
    ExponentialCurve,
    LinearCappedCurve,
    TabulatedCurve,
)
from srrb.cli import main
from srrb.harness import (
    _UNIFORM_BLOCK,
    child_seed,
    evaluation_grid,
    run_batch,
    run_batches,
    run_single,
    sweep_batches,
    wald_regret_bound,
)
from srrb.instance import Arm, Instance
from srrb.policies import PolicyConfig, make_policy


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


class Replay:
    """Stub policy pulling a given arm sequence, round t its (t - 1)-th entry."""

    def __init__(self, pulls):
        self.pulls = list(pulls)

    def select_arm(self, t):
        return self.pulls[t - 1]

    def update(self, arm, reward, t):
        pass


class Recording:
    """Policy proxy recording each round's (arm, reward)."""

    def __init__(self, policy):
        self.policy = policy
        self.observed = []

    def select_arm(self, t):
        return self.policy.select_arm(t)

    def update(self, arm, reward, t):
        self.observed.append((arm, reward))
        self.policy.update(arm, reward, t)


def recorded_pulls(inst, config, seed, stride=None):
    """``run_single(inst, config, seed=seed)`` through a :class:`Recording`
    of the policy it builds: the record and the arm of each round."""
    policy_ss, _ = np.random.SeedSequence(seed).spawn(2)
    policy = make_policy(config, inst.num_arms, inst.horizon, np.random.default_rng(policy_ss),
                         [arm.law for arm in inst.arms])
    recording = Recording(policy)
    record = run_single(inst, recording, seed=seed, stride=stride)
    plain = run_single(inst, config, seed=seed, stride=stride)
    assert record.regret.tobytes() == plain.regret.tobytes()
    return record, [arm for arm, _ in recording.observed]


def running_regret(inst, pulls):
    """The oracle: mu*(t) - mu_i(n) summed round by round from 0."""
    opt = inst.expected_rewards(inst.optimal_arm)
    counts = [0] * inst.num_arms
    running, trajectory = 0.0, [0.0]
    for t, arm in enumerate(pulls, start=1):
        counts[arm] += 1
        running += float(opt[t - 1]) - inst.expected_reward(arm, counts[arm])
        trajectory.append(running)
    return np.array(trajectory)


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
        a, a_pulls = recorded_pulls(inst, PolicyConfig(kind="beta_swts"), seed=99)
        b, b_pulls = recorded_pulls(inst, PolicyConfig(kind="beta_swts"), seed=99)
        assert a_pulls == b_pulls
        np.testing.assert_array_equal(a.regret, b.regret)
        np.testing.assert_array_equal(a.pull_counts, b.pull_counts)

    def test_different_seeds_differ(self):
        inst = stationary([0.6, 0.5])
        _, a_pulls = recorded_pulls(inst, PolicyConfig(kind="beta_swts"), seed=99)
        _, b_pulls = recorded_pulls(inst, PolicyConfig(kind="beta_swts"), seed=100)
        assert a_pulls != b_pulls

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
        record, pulls = recorded_pulls(inst, PolicyConfig(kind=kind, window=40), seed=5, stride=1)
        assert record.regret.tobytes() == running_regret(inst, pulls).tobytes()
        np.testing.assert_array_equal(record.pull_counts, np.bincount(pulls, minlength=3))

    def test_wald_bound_holds_per_run(self):
        inst = stationary([0.6, 0.5, 0.3])
        for seed in range(10):
            record = run_single(inst, PolicyConfig(kind="ucb1"), seed=seed)
            assert record.final_regret <= wald_regret_bound(inst, record.pull_counts) + 1e-9


class TestRewardStream:
    """Round t maps the t-th uniform of the run's reward generator, drawn a
    block at a time: the rounds must see what one scalar ``random()`` call
    a round gives, deterministic arms included."""

    @pytest.mark.parametrize("kind", ["gauss_swgts", "ucb1", "sw_ucb"])
    def test_mixed_laws_match_a_scalar_reference_loop(self, kind):
        horizon = 3 * _UNIFORM_BLOCK
        inst = Instance(
            [Arm(TabulatedCurve([0.2 + n / 8000 for n in range(horizon)]), BernoulliLaw()),
             Arm(ConstantCurve(0.5), BoundedUniformLaw(half_width=0.3)),
             Arm(ConstantCurve(0.35), BoundedUniformLaw(half_width=0.0))],
            horizon,
        )
        config = PolicyConfig(kind=kind, window=200)
        policy_ss, reward_ss = np.random.SeedSequence(4).spawn(2)
        laws = [arm.law for arm in inst.arms]

        def policy():
            return make_policy(config, 3, horizon, np.random.default_rng(policy_ss), laws)

        recording = Recording(policy())
        record = run_single(inst, recording, seed=4, stride=1)

        # the reference: one scalar reward_rng.random() call every round
        reference, reward_rng = policy(), np.random.default_rng(reward_ss)
        counts, observed = [0, 0, 0], []
        for t in range(1, horizon + 1):
            arm = reference.select_arm(t)
            counts[arm] += 1
            reward = laws[arm].sample(reward_rng.random(), inst.expected_reward(arm, counts[arm]))
            reference.update(arm, reward, t)
            observed.append((arm, reward))
        assert min(counts) > 0
        assert recording.observed == observed
        pulls = [arm for arm, _ in observed]
        assert record.regret.tobytes() == running_regret(inst, pulls).tobytes()
        assert record.pull_counts.tolist() == counts


# (final regret bits, lifetime pulls per arm) for each kind at two seeds
PINNED_RUNS = {
    ("beta_swts", 3): ("0x1.04a0744484e17p+7", [84, 45, 371]),
    ("beta_swts", 11): ("0x1.fc084362e2798p+6", [58, 43, 399]),
    ("gauss_swgts", 3): ("0x1.04d7272a41a6bp+7", [77, 46, 377]),
    ("gauss_swgts", 11): ("0x1.10a0fe36dfc21p+7", [95, 58, 347]),
    ("ucb1", 3): ("0x1.10d887f2b8b79p+7", [134, 64, 302]),
    ("ucb1", 11): ("0x1.0dedb8b899d94p+7", [166, 72, 262]),
    ("sw_ucb", 3): ("0x1.117fe53d98cd2p+7", [117, 61, 322]),
    ("sw_ucb", 11): ("0x1.1235fc9f55f45p+7", [145, 69, 286]),
}
PINNED_FIELDS = {
    "beta_swts": {"window": 40, "forced_pulls": 1},
    "gauss_swgts": {"window": 60, "forced_pulls": 1},
    "ucb1": {"window": 80},
    "sw_ucb": {"window": 30},
}


@pytest.mark.parametrize("kind, seed", list(PINNED_RUNS))
def test_run_single_pinned(kind, seed):
    """``run_single`` on a fixed three-arm Bernoulli instance, with windows
    that evict, pinned to the bits of its final regret and its pull counts.

    A change to the round loop that keeps every random draw leaves these
    as they are.  A change of random streams, such as a lockstep batched
    engine, re-records them and names the stream change in CHANGES.md.
    """
    inst = Instance(
        [
            Arm(ExponentialCurve(c=0.9, a=0.01), BernoulliLaw()),
            Arm(LinearCappedCurve(slope=0.002, cap=0.6), BernoulliLaw()),
            Arm(ConstantCurve(0.55), BernoulliLaw()),
        ],
        500,
    )
    record = run_single(inst, PolicyConfig(kind=kind, **PINNED_FIELDS[kind]), seed=seed)
    regret_hex, pull_counts = PINNED_RUNS[kind, seed]
    assert record.final_regret.hex() == regret_hex
    assert record.pull_counts.tolist() == pull_counts


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

    def test_each_run_takes_the_resolved_config(self, monkeypatch):
        # resolved once per batch, so each run's make_policy resolves nothing new
        import srrb.harness

        inst = stationary([0.6, 0.5], horizon=200)
        laws = [arm.law for arm in inst.arms]
        given = []
        real = srrb.harness.run_single
        monkeypatch.setattr(srrb.harness, "run_single",
                            lambda inst, cfg, **kw: given.append(cfg) or real(inst, cfg, **kw))
        run_batch(inst, PolicyConfig(kind="ucb1"), runs=3)
        assert given == [PolicyConfig(kind="ucb1").resolve(200, laws)] * 3
        assert all(cfg.resolve(200, laws) is cfg for cfg in given)

    @pytest.mark.parametrize("horizon", [0, 201, 400])
    def test_horizon_outside_the_instance_rejected(self, horizon):
        inst = stationary([0.6, 0.5], horizon=200)
        with pytest.raises(ValueError, match="horizon must be in"):
            run_batch(inst, PolicyConfig(kind="beta_swts"), horizon=horizon)
        with pytest.raises(ValueError, match="horizon must be in"):
            run_single(inst, PolicyConfig(kind="beta_swts"), horizon=horizon)

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


class TestSweepBatches:
    def test_matches_the_benchmark_derivation(self):
        # the derivation perfbench's sweep workload repeats for its traced
        # replay: replace the field, resolve against the instance, seed
        # point j by child_seed(master_seed, j)
        inst = Instance([Arm(ConstantCurve(0.6), BoundedUniformLaw(0.2)),
                         Arm(ConstantCurve(0.5), BernoulliLaw())], 300)
        laws = [arm.law for arm in inst.arms]
        cfg = PolicyConfig(kind="gauss_swgts", window=40)
        grid, runs, seed = [0, 5, 20], 4, 99
        plan = sweep_batches(inst, cfg, "forced_pulls", grid, runs, seed)
        assert plan == [
            (replace(cfg, forced_pulls=v).resolve(300, laws), runs, child_seed(seed, j))
            for j, v in enumerate(grid)
        ]

    def test_full_window_exponent_reproduces_plain_variant(self):
        inst = stationary([0.6, 0.5], horizon=400)
        plan = sweep_batches(inst, PolicyConfig(kind="beta_swts"), "window_exponent", [1.0],
                             runs=3, master_seed=21)
        assert plan[0][0].window == 400
        direct = run_batch(
            inst,
            PolicyConfig(kind="beta_swts", window=400),
            runs=3,
            master_seed=child_seed(21, 0),
        )
        assert run_batches(inst, plan)[0].mean_regret[-1] == direct.mean_regret[-1]

    def test_plans_at_the_instance_horizon(self):
        # a sweep has no horizon of its own: a shorter run is a shorter instance
        inst = stationary([0.6, 0.5], horizon=400)
        short = Instance(inst.arms, 150)
        with pytest.raises(TypeError, match="horizon"):
            sweep_batches(inst, PolicyConfig(kind="beta_swts"), "forced_pulls", [0], horizon=150)
        plan = sweep_batches(short, PolicyConfig(kind="beta_swts"), "window_exponent", [1.0],
                             runs=2)
        assert plan[0][0].window == 150
        direct = run_batch(
            inst, PolicyConfig(kind="beta_swts", window=150), horizon=150, runs=2,
            master_seed=child_seed(0, 0),
        )
        assert run_batches(short, plan)[0].mean_regret[-1] == direct.mean_regret[-1]

    def test_window_exponent_clamps(self):
        inst = stationary([0.6, 0.5], horizon=100)
        plan = sweep_batches(inst, PolicyConfig(kind="beta_swts"), "window_exponent", [0.0, 5.0])
        assert [point.window for point, _, _ in plan] == [1, 100]

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
    def test_bad_grid_value_fails_while_planning(self, axis, value):
        with pytest.raises(ValueError, match=axis):
            sweep_batches(stationary([0.6, 0.5]), PolicyConfig(kind="beta_swts"), axis, [0, value])

    @pytest.mark.parametrize(
        "instance, message",
        [
            (stationary([0.6, 0.5], horizon=50), "window 50 or forced_pulls 51 > horizon 50"),
            (Instance([Arm(ConstantCurve(0.6), BoundedUniformLaw(0.2)),
                       Arm(ConstantCurve(0.5), BernoulliLaw())], 50),
             "Beta posteriors require a Bernoulli reward law"),
        ],
    )
    def test_unresolvable_point_fails_while_planning(self, instance, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep_batches(instance, PolicyConfig(kind="beta_swts"), "forced_pulls", [0, 51])

    @pytest.mark.parametrize(
        "axis, grid, message",
        [("learning_rate", [1], "axis must be one of"), ("forced_pulls", [], "non-empty")],
    )
    def test_unknown_axis_or_empty_grid(self, axis, grid, message):
        with pytest.raises(ValueError, match=message):
            sweep_batches(stationary([0.6, 0.5]), PolicyConfig(kind="beta_swts"), axis, grid)


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child the harness forks."""
    import srrb.harness

    started = []
    real = os.fork

    def counting_fork():
        pid = real()
        if pid:
            started.append(pid)
        return pid

    # srrb.harness.os is the os module: the patch holds for this test only
    monkeypatch.setattr(srrb.harness.os, "fork", counting_fork)
    return started


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _experiment(tmp_path, horizon=100, **fields) -> str:
    """An experiment config file on a two-armed stationary instance with
    two policies, 2 runs each."""
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({
        "instance": stationary([0.6, 0.5], horizon=horizon).to_dict(),
        "runs": 2,
        "policies": [{"kind": "beta_swts"}, {"kind": "ucb1"}],
        **fields,
    }))
    return str(config)


class TestOnePool:
    """A call runs one task list on ``min(threads, tasks)`` workers: the
    caller and ``os.fork`` children."""

    @pytest.mark.parametrize("threads, expected", [("1", 0), ("2", 1)])
    def test_sweep_forks_one_child_fewer_than_workers(self, forks, tmp_path, threads, expected):
        # both policies' grid points form one task list
        config = _experiment(tmp_path, sweep={"axis": "forced_pulls", "grid": [0, 1, 2]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out), "--threads", threads]) == 0
        assert len(forks) == expected and _no_child_left()

    # two policies, 2 runs each: 4 tasks, so 8 threads fork one child per task but one
    @pytest.mark.parametrize("threads, expected", [("1", 0), ("2", 1), ("8", 3)])
    def test_run_forks_one_child_fewer_than_workers(self, forks, tmp_path, threads, expected):
        out = tmp_path / "out"
        assert main(["run", "--config", _experiment(tmp_path), "--out", str(out),
                     "--threads", threads]) == 0
        assert len(forks) == expected and _no_child_left()

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_empty_plan_has_no_aggregates_and_forks_nothing(self, forks, parallelism):
        assert run_batches(stationary([0.6, 0.5]), [], parallelism) == []
        assert forks == [] and _no_child_left()

    def test_unresolvable_sweep_point_starts_no_run_and_forks_nothing(
        self, monkeypatch, forks, tmp_path, capsys
    ):
        import srrb.harness

        started = []
        real = srrb.harness.run_single
        monkeypatch.setattr(
            srrb.harness, "run_single", lambda *a, **k: started.append(a) or real(*a, **k)
        )
        config = _experiment(tmp_path, horizon=50, sweep={"axis": "forced_pulls", "grid": [0, 51]})
        out = tmp_path / "out"
        for threads in ("1", "2"):
            assert main(["sweep", "--config", config, "--out", str(out), "--threads", threads]) == 2
            assert capsys.readouterr().err == (
                "error: bad sweep section: window 50 or forced_pulls 51 > horizon 50\n"
            )
        assert started == [] and forks == [] and not out.exists()


# a caller that dies by SIGKILL during its first share while its child
# runs a share larger than a pipe's buffer (stride 1 keeps every round)
_KILLED_CALLER = """
import os, signal
import srrb.harness as harness
from srrb.curves import BernoulliLaw, ConstantCurve
from srrb.instance import Arm, Instance
from srrb.policies import PolicyConfig

caller, real = os.getpid(), harness.wald_regret_bound

def bound(inst, pulls):
    if os.getpid() == caller:
        os.kill(caller, signal.SIGKILL)
    return real(inst, pulls)

harness.wald_regret_bound = bound
inst = Instance([Arm(ConstantCurve(v), BernoulliLaw()) for v in (0.6, 0.5)], 10_000)
harness.run_batch(inst, PolicyConfig(kind="ucb1"), runs=2, parallelism=2, stride=1)
"""


class TestWorkerFailures:
    """A failing run raises what a serial run raises, and no child
    outlives the call."""

    def test_bound_violation_reports_the_serial_runs_error(self, monkeypatch, tmp_path, capsys):
        import srrb.harness

        config = _experiment(tmp_path, sweep={"axis": "forced_pulls", "grid": [0, 1, 2]})
        real = srrb.harness.wald_regret_bound
        counts = []  # the pull counts of each task, in task order
        monkeypatch.setattr(srrb.harness, "wald_regret_bound",
                            lambda inst, pulls: counts.append(tuple(pulls)) or real(inst, pulls))
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "serial")]) == 0
        unique = [i for i, c in enumerate(counts) if counts.count(c) == 1]
        # a child holds the first at 2 and at 3 workers, the caller the second
        first = next(i for i in unique if i % 2 and i % 3)
        second = next(i for i in unique if i > first and i % 6 == 0)
        failing = {counts[first], counts[second]}
        monkeypatch.setattr(srrb.harness, "wald_regret_bound",
                            lambda inst, pulls: -1.0 if tuple(pulls) in failing
                            else real(inst, pulls))

        errors = {}
        for threads in ("1", "2", "3"):
            out = tmp_path / f"out{threads}"
            assert main(["sweep", "--config", config, "--out", str(out),
                         "--threads", threads]) == 1
            errors[threads] = capsys.readouterr().err
            assert not out.exists() and _no_child_left()
        assert errors["1"].startswith(f"property violation: run {first % 2}: trajectory regret ")
        assert errors["1"].endswith(" exceeded its pull-count bound -1.0\n")
        assert errors["2"] == errors["1"] and errors["3"] == errors["1"]

    def test_child_that_dies_mid_share_raises(self, monkeypatch):
        import srrb.harness

        caller, real = os.getpid(), srrb.harness.wald_regret_bound
        checked = []  # each child's own copy counts its runs

        def dying_bound(inst, pulls):
            if os.getpid() != caller:
                checked.append(pulls)
                if len(checked) == 2:
                    os._exit(3)
            return real(inst, pulls)

        monkeypatch.setattr(srrb.harness, "wald_regret_bound", dying_bound)
        with pytest.raises(RuntimeError, match="exited with status 3 without its runs"):
            run_batch(stationary([0.6, 0.5], horizon=100), PolicyConfig(kind="beta_swts"),
                      runs=9, parallelism=3)
        assert _no_child_left()

    def test_interrupted_caller_kills_its_children(self, monkeypatch):
        import srrb.harness

        caller, real = os.getpid(), srrb.harness.wald_regret_bound

        def interrupted_bound(inst, pulls):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return real(inst, pulls)

        monkeypatch.setattr(srrb.harness, "wald_regret_bound", interrupted_bound)
        with pytest.raises(KeyboardInterrupt):
            run_batch(stationary([0.6, 0.5], horizon=100), PolicyConfig(kind="beta_swts"),
                      runs=6, parallelism=3)
        assert _no_child_left()

    def test_child_of_a_killed_caller_exits(self):
        import srrb.harness

        # the child holds the caller's output pipes, so subprocess.run returns once it exits
        src = str(Path(srrb.harness.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", _KILLED_CALLER], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == -signal.SIGKILL
