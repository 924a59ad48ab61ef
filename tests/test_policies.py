"""Policy behavior: forced exploration, window bookkeeping, posterior
selection, baselines, and determinism."""

import copy
import math
import re
from collections import deque

import numpy as np
import pytest

from srrb.curves import BernoulliLaw, BoundedUniformLaw
from srrb.policies import (
    _LIST_ARMS,
    POLICY_KINDS,
    KeptIndexUCB,
    PolicyConfig,
    default_precision_scale,
    default_sw_window,
    make_policy,
)
from srrb.verify import recount_window_stats


def rng(seed=0):
    return np.random.default_rng(seed)


def build(kind, num_arms, horizon, window=None, forced=0, seed=0, **params):
    config = PolicyConfig(kind=kind, forced_pulls=forced, window=window, **params)
    return make_policy(config, num_arms, horizon, rng(seed))


class TestConfig:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(kind="egreedy")

    def test_resolve_fills_window(self):
        cfg = PolicyConfig(kind="beta_swts").resolve(horizon=500)
        assert cfg.window == 500
        assert cfg.resolve(horizon=500) is cfg

    @pytest.mark.parametrize("field", ["window", "forced_pulls"])
    def test_resolve_rejects_a_count_past_the_horizon(self, field):
        assert PolicyConfig(kind="beta_swts", **{field: 50}).resolve(horizon=50)
        with pytest.raises(ValueError, match="> horizon 50"):
            PolicyConfig(kind="beta_swts", **{field: 51}).resolve(horizon=50)

    def test_sw_ucb_default_window_recipe(self):
        # ceil(4 sqrt(T ln T)) at T = 1e4 evaluates to 1214
        assert default_sw_window(10_000) == math.ceil(4 * math.sqrt(10_000 * math.log(10_000)))
        assert default_sw_window(10_000) == 1214
        cfg = PolicyConfig(kind="sw_ucb").resolve(horizon=10_000)
        assert cfg.window == 1214

    def test_default_precision_from_largest_variance_proxy(self):
        # arm 0 is Bernoulli (scale 1); the wide uniform arm sets the default
        wide = BoundedUniformLaw(half_width=0.9)
        laws = [BernoulliLaw(), wide]
        cfg = PolicyConfig(kind="gauss_swgts").resolve(horizon=10, law=laws)
        assert cfg.precision_scale == default_precision_scale(wide) < 1.0
        assert cfg.resolve(horizon=10, law=laws) is cfg

    def test_beta_checks_every_arm_law(self):
        laws = [BernoulliLaw(), BoundedUniformLaw(half_width=0.1)]
        with pytest.raises(ValueError, match="Bernoulli"):
            PolicyConfig(kind="beta_swts").resolve(horizon=10, law=laws)
        with pytest.raises(ValueError, match="Bernoulli"):
            make_policy(PolicyConfig(kind="beta_swts"), 2, 10, rng(), laws)

    def test_default_precision_scale(self):
        assert default_precision_scale(BernoulliLaw()) == 1.0
        law = BoundedUniformLaw(half_width=0.9)
        assert default_precision_scale(law) == pytest.approx(
            min(1.0 / (4.0 * 0.81 / 3.0), 1.0)
        )
        cfg = PolicyConfig(kind="gauss_swgts").resolve(horizon=10, law=BernoulliLaw())
        assert cfg.precision_scale == 1.0

    def test_named_variant_parameterizations(self):
        # plain TS: no forced pulls, full window
        plain = PolicyConfig(kind="beta_swts").resolve(horizon=100)
        assert plain.forced_pulls == 0 and plain.window == 100
        # explore-then variant: positive forced pulls
        et = PolicyConfig(kind="beta_swts", forced_pulls=10)
        assert et.forced_pulls == 10
        with pytest.raises(ValueError):
            PolicyConfig(kind="beta_swts", forced_pulls=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("forced_pulls", 2.5),
            ("forced_pulls", 2.0),
            ("forced_pulls", True),
            ("window", 2.5),
            ("window", True),
            ("window", 0),
            ("ucb_alpha", True),
            ("ucb_alpha", 0.0),
            pytest.param("ucb_alpha", 10**400, id="ucb_alpha-too-large-for-a-float"),
            pytest.param("precision_scale", -(10**400), id="precision_scale-too-large-for-a-float"),
            ("sw_xi", math.nan),
            ("sw_xi", "0.6"),
            ("precision_scale", math.inf),
            ("precision_scale", False),
            ("label", 3),
        ],
    )
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            PolicyConfig(kind="gauss_swgts", **{field: value})

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("beta_swts", "sw_xi"),
            ("beta_swts", "ucb_alpha"),
            ("beta_swts", "precision_scale"),
            ("sw_ucb", "ucb_alpha"),
            ("ucb1", "precision_scale"),
            ("gauss_swgts", "sw_xi"),
        ],
    )
    def test_rejects_fields_the_kind_does_not_read(self, kind, field):
        with pytest.raises(ValueError, match=f"{field} does not apply to {kind}"):
            PolicyConfig(kind=kind, **{field: 0.5})

    def test_resolve_fills_the_kind_parameter(self):
        ucb = PolicyConfig(kind="ucb1").resolve(horizon=10)
        sw = PolicyConfig(kind="sw_ucb").resolve(horizon=10)
        assert (ucb.ucb_alpha, sw.sw_xi) == (2.0, 0.6)
        assert ucb.resolve(horizon=10) is ucb and sw.resolve(horizon=10) is sw
        # a set window leaves the parameter to fill
        assert PolicyConfig(kind="ucb1", window=10).resolve(horizon=10).ucb_alpha == 2.0
        resolved = PolicyConfig(kind="beta_swts").resolve(horizon=10)
        assert (resolved.ucb_alpha, resolved.sw_xi, resolved.precision_scale) == (None,) * 3

    @pytest.mark.parametrize("label", ["", ".", "..", "../escaped", "a/b", "/abs", "nul\0"])
    def test_label_must_be_a_file_name(self, label):
        with pytest.raises(ValueError, match="label"):
            PolicyConfig(kind="ucb1", label=label)

    def test_numpy_numbers_become_python_numbers(self):
        cfg = PolicyConfig(
            kind="sw_ucb", forced_pulls=np.int32(2), window=np.int64(5), sw_xi=np.float32(0.5)
        )
        assert cfg.to_dict() == {"kind": "sw_ucb", "forced_pulls": 2, "window": 5, "sw_xi": 0.5}
        assert type(cfg.window) is int and type(cfg.sw_xi) is float


class TestForcedExploration:
    def test_round_robin_schedule(self):
        policy = build("beta_swts", 3, 100, window=100, forced=2)
        # rounds 1..6 cycle over arms 0, 1, 2 twice
        expected = [0, 1, 2, 0, 1, 2]
        for t, arm in enumerate(expected, start=1):
            assert policy.select_arm(t) == arm
            policy.update(arm, 0.0, t)

    def test_counts_after_forced_phase(self):
        forced = 4
        policy = build("gauss_swgts", 5, 200, window=200, forced=forced)
        for t in range(1, 5 * forced + 1):
            arm = policy.select_arm(t)
            policy.update(arm, 0.25, t)
        np.testing.assert_array_equal(policy.window_lists()[0], forced)

    def test_fourth_round_second_pass(self):
        policy = build("beta_swts", 3, 50, forced=2)
        for t in range(1, 4):
            policy.update(policy.select_arm(t), 1.0, t)
        assert policy.select_arm(4) == 0


class TestBetaSelection:
    def test_dominant_arm_wins_almost_surely(self):
        policy = build("beta_swts", 2, 10_000, seed=5)
        t = 1
        for _ in range(50):
            policy.update(0, 1.0, t)
            t += 1
        for _ in range(50):
            policy.update(1, 0.0, t)
            t += 1
        wins = sum(policy.select_arm(t) == 0 for _ in range(10_000))
        assert wins / 10_000 > 0.999

    def test_posterior_parameters_from_window(self):
        policy = build("beta_swts", 1, 100)
        rewards = [1.0, 0.0, 1.0, 1.0, 0.0]
        for t, x in enumerate(rewards, start=1):
            policy.update(0, x, t)
        # S = 3, N = 5 gives a Beta(4, 3) posterior
        counts, sums = policy.window_lists()
        assert sums[0] == 3.0
        assert counts[0] == 5
        assert sums[0] + 1 == 4
        assert counts[0] - sums[0] + 1 == 3

    def test_rejects_nonbinary_reward(self):
        policy = build("beta_swts", 2, 10)
        with pytest.raises(ValueError):
            policy.update(0, 0.5, 1)

    def test_empty_window_samples_flat_prior(self):
        # with window 1, every round evicts the other arm's sample, yet
        # selection still works by sampling Beta(1, 1)
        policy = build("beta_swts", 2, 100, window=1, seed=3)
        for t in range(1, 50):
            arm = policy.select_arm(t)
            policy.update(arm, 1.0, t)
        assert sum(policy.window_lists()[0]) == 1


class TestGaussianSelection:
    def test_forced_pull_on_empty_window(self):
        policy = build("gauss_swgts", 3, 100)
        assert policy.select_arm(1) == 0
        policy.update(0, 0.4, 1)
        assert policy.select_arm(2) == 1
        policy.update(1, 0.2, 2)
        assert policy.select_arm(3) == 2

    def test_window_eviction_triggers_forced_pull(self):
        # window 2: after two rounds on other arms, an arm's stats vanish
        # and it must be pulled outright
        policy = build("gauss_swgts", 2, 100, window=2, seed=1)
        policy.update(0, 1.0, 1)
        policy.update(1, 1.0, 2)
        policy.update(1, 1.0, 3)
        assert policy.window_lists()[0][0] == 0
        assert policy.select_arm(4) == 0

    def test_accepts_real_rewards(self):
        policy = build("gauss_swgts", 2, 10)
        policy.update(0, 0.731, 1)
        assert policy.window_lists()[1][0] == pytest.approx(0.731)

    def test_float32_rewards_sum_in_double_precision(self):
        # a float32 added to a Python float would stay float32
        policy = build("gauss_swgts", 2, 10)
        for t in range(1, 4):
            policy.update(0, np.float32(0.1), t)
        assert policy.window_lists()[1][0] == 0.30000000447034836


_BETA = ("beta_swts",)
_NOT_BETA = tuple(kind for kind in POLICY_KINDS if kind != "beta_swts")
_SEQUENTIAL = "rounds must be sequential: expected 3, got"
# (kinds, call, arguments, horizon, error, message): each call is made
# after rounds 1 and 2 of a two-arm policy with window 2
_REJECTED_CALLS = [
    (POLICY_KINDS, "select_arm", (2,), 10, ValueError, f"{_SEQUENTIAL} 2"),
    (POLICY_KINDS, "select_arm", (4,), 10, ValueError, f"{_SEQUENTIAL} 4"),
    (POLICY_KINDS, "select_arm", (3,), 2, ValueError, "round 3 past the horizon 2"),
    (POLICY_KINDS, "update", (0, 1.0, 2), 10, ValueError, f"{_SEQUENTIAL} 2"),
    (POLICY_KINDS, "update", (0, 1.0, 4), 10, ValueError, f"{_SEQUENTIAL} 4"),
    (POLICY_KINDS, "update", (0, 1.0, 3), 2, ValueError, "round 3 past the horizon 2"),
    (POLICY_KINDS, "update", (2, 1.0, 3), 10, IndexError, "arm index 2 out of range"),
    (POLICY_KINDS, "update", (-1, 0.0, 3), 10, IndexError, "arm index -1 out of range"),
    (_BETA, "update", (0, 0.5, 3), 10, ValueError, "rewards in {0, 1}, got 0.5"),
    *((_BETA, "update", (0, x, 3), 10, ValueError, f"rewards in {{0, 1}}, got {x}")
      for x in (math.nan, math.inf, -math.inf)),
    *((_NOT_BETA, "update", (0, x, 3), 10, ValueError, f"rewards must be finite, got {x}")
      for x in (math.nan, math.inf, -math.inf)),
    # the order of the checks: Beta's reward, the round, the arm, finiteness
    (_BETA, "update", (2, math.nan, 4), 10, ValueError, "rewards in {0, 1}, got nan"),
    (_NOT_BETA, "update", (2, math.nan, 4), 10, ValueError, f"{_SEQUENTIAL} 4"),
    (_NOT_BETA, "update", (2, math.nan, 3), 10, IndexError, "arm index 2 out of range"),
    # a round both out of order and past the horizon is reported as out of order
    (POLICY_KINDS, "select_arm", (4,), 2, ValueError, f"{_SEQUENTIAL} 4"),
    (POLICY_KINDS, "update", (0, 1.0, 4), 2, ValueError, f"{_SEQUENTIAL} 4"),
]


class TestWindowAccounting:
    def test_gap_window_example(self):
        # window 3, pulls of arm 0 at rounds 1, 2 and 4: by round 5 only
        # rounds 2 and 4 remain in view
        policy = build("gauss_swgts", 2, 100, window=3)
        policy.update(0, 1.0, 1)
        policy.update(0, 1.0, 2)
        policy.update(1, 0.5, 3)
        policy.update(0, 1.0, 4)
        assert policy.window_lists()[0] == [2, 1]

    def test_full_window_never_evicts(self):
        horizon = 300
        policy = build("beta_swts", 2, horizon, seed=2)
        pulls = np.random.default_rng(9).integers(0, 2, size=horizon)
        for t, arm in enumerate(pulls, start=1):
            policy.update(int(arm), 1.0, t)
        np.testing.assert_array_equal(policy.window_lists()[0], np.bincount(pulls, minlength=2))

    @pytest.mark.parametrize("window", [1, 7, 64, 500])
    def test_matches_recount_on_random_trace(self, window):
        horizon, num_arms = 500, 4
        trace_rng = np.random.default_rng(window)
        pulls = trace_rng.integers(0, num_arms, size=horizon)
        rewards = trace_rng.integers(0, 1025, size=horizon) / 1024.0
        policy = build("sw_ucb", num_arms, horizon, window=window, seed=4)
        counts, sums = recount_window_stats(pulls, rewards, num_arms, window)
        for t in range(1, horizon + 1):
            policy.update(int(pulls[t - 1]), float(rewards[t - 1]), t)
            live_counts, live_sums = policy.window_lists()
            np.testing.assert_array_equal(live_counts, counts[t])
            np.testing.assert_array_equal(live_sums, sums[t])

    @pytest.mark.parametrize("kind, call, args, horizon, error, message", [
        (kind, *row) for kinds, *row in _REJECTED_CALLS for kind in kinds
    ])
    def test_rejected_call_changes_no_state(self, kind, call, args, horizon, error, message):
        # a NaN would stay in the arm's window sum for good
        policy = build(kind, 2, horizon, window=2)
        policy.update(0, 1.0, 1)
        policy.update(1, 0.0, 2)

        def state():
            return ([list(v) for v in (*policy.window_lists(), policy._p, policy._q)],
                    list(policy._ring), policy._empty, policy._rounds_done)

        before = state()
        with pytest.raises(error, match=re.escape(message)):
            getattr(policy, call)(*args)
        assert state() == before
        if horizon > 2:
            policy.update(0, 1.0, 3)  # the same round then goes through, evicting round 1
            assert policy.window_lists()[0] == [1, 1]


class TestBaselines:
    def test_ucb1_bootstrap(self):
        policy = build("ucb1", 3, 100)
        seen = set()
        for t in range(1, 4):
            arm = policy.select_arm(t)
            seen.add(arm)
            policy.update(arm, 1.0, t)
        assert seen == {0, 1, 2}

    def test_ucb1_prefers_higher_mean(self):
        policy = build("ucb1", 2, 100)
        for t, (arm, x) in enumerate([(0, 1.0), (1, 0.0), (0, 1.0), (1, 0.0)], start=1):
            policy.update(arm, x, t)
        assert policy.select_arm(5) == 0

    def test_ucb1_index_formula(self):
        policy = build("ucb1", 2, 100, ucb_alpha=2.0)
        for t, (arm, x) in enumerate([(0, 1.0), (1, 0.0)], start=1):
            policy.update(arm, x, t)
        t = 3
        idx0 = 1.0 + math.sqrt(2.0 * math.log(t) / 1)
        idx1 = 0.0 + math.sqrt(2.0 * math.log(t) / 1)
        assert idx0 > idx1
        assert policy.select_arm(t) == 0

    def test_sw_ucb_uses_window(self):
        # after the window slides past arm 0's good streak, the empty-window
        # bootstrap pulls it again
        policy = build("sw_ucb", 2, 100, window=2, seed=8)
        policy.update(0, 1.0, 1)
        policy.update(1, 0.0, 2)
        policy.update(1, 0.0, 3)
        assert policy.window_lists()[0][0] == 0
        assert policy.select_arm(4) == 0

    def test_tie_break_randomizes(self):
        policy = build("ucb1", 2, 10_000, seed=11)
        policy.update(0, 1.0, 1)
        policy.update(1, 1.0, 2)
        picks = {policy.select_arm(3) for _ in range(64)}
        assert picks == {0, 1}


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        def run(seed):
            policy = build("beta_swts", 3, 400, window=50, forced=2, seed=seed)
            reward_rng = np.random.default_rng(123)
            picks = []
            for t in range(1, 401):
                arm = policy.select_arm(t)
                picks.append(arm)
                policy.update(arm, float(reward_rng.integers(0, 2)), t)
            return picks

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_make_policy_dispatch(self):
        for kind in POLICY_KINDS:
            config = PolicyConfig(kind=kind, forced_pulls=2)
            policy = make_policy(config, 3, 50, rng(), BernoulliLaw())
            resolved = config.resolve(50, BernoulliLaw())
            assert (policy.num_arms, policy.window, policy.forced_pulls) == (3, resolved.window, 2)

    def test_ucb1_is_sw_ucb_with_its_window(self):
        ucb1 = build("ucb1", 3, 50, ucb_alpha=0.8)
        assert type(ucb1) is type(build("sw_ucb", 3, 50))
        assert (ucb1.window, ucb1.param) == (50, 0.8)
        # an explicit window is honoured, as for sw_ucb
        assert build("ucb1", 3, 50, window=7).window == 7

    def test_beta_rejects_non_bernoulli_law(self):
        with pytest.raises(ValueError):
            make_policy(
                PolicyConfig(kind="beta_swts"), 2, 50, rng(), BoundedUniformLaw(half_width=0.1)
            )


class _DequeOracle:
    """Reference copy of the per-arm deque implementation the ring buffer
    replaced: deque eviction scanning every arm, ``flatnonzero``
    tie-breaks, ``rng.normal`` and ``rng.beta`` draws, and lifetime
    statistics for UCB1.  ``ties`` counts the randomized tie-breaks."""

    def __init__(self, kind, num_arms, horizon, window, forced, rng, param):
        self.kind, self.num_arms, self.forced, self.rng, self.param = (
            kind, num_arms, forced, rng, param
        )
        self.window = horizon if kind == "ucb1" else window
        self.entries = [deque() for _ in range(num_arms)]
        self.counts = np.zeros(num_arms, dtype=np.int64)
        self.sums = np.zeros(num_arms)
        self.lifetime_counts = np.zeros(num_arms, dtype=np.int64)
        self.lifetime_sums = np.zeros(num_arms)
        self.ties = 0

    def _argmax(self, values):
        best = values.max()
        ties = np.flatnonzero(values == best)
        if ties.size == 1:
            return int(ties[0])
        self.ties += 1
        return int(ties[self.rng.integers(ties.size)])

    def select_arm(self, t):
        if t <= self.num_arms * self.forced:
            return (t - 1) % self.num_arms
        counts, sums = self.counts, self.sums
        if self.kind == "beta_swts":
            return self._argmax(self.rng.beta(sums + 1.0, counts - sums + 1.0))
        if self.kind == "ucb1":
            counts, sums = self.lifetime_counts, self.lifetime_sums
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            return int(empty[0])
        means = sums / counts
        if self.kind == "gauss_swgts":
            return self._argmax(self.rng.normal(means, np.sqrt(1.0 / (self.param * counts))))
        if self.kind == "ucb1":
            return self._argmax(means + np.sqrt(self.param * math.log(t) / counts))
        return self._argmax(
            means + np.sqrt(self.param * math.log(min(t, self.window)) / counts)
        )

    def update(self, arm, reward, t):
        self.entries[arm].append((t, reward))
        self.counts[arm] += 1
        self.sums[arm] += reward
        self.lifetime_counts[arm] += 1
        self.lifetime_sums[arm] += reward
        cutoff = t + 1 - self.window
        if cutoff > 1:
            for i, dq in enumerate(self.entries):
                while dq and dq[0][0] < cutoff:
                    _, old = dq.popleft()
                    self.counts[i] -= 1
                    self.sums[i] -= old


ORACLE_PARAMS = {"beta_swts": None, "gauss_swgts": 0.7, "ucb1": 2.0, "sw_ucb": 0.6}


PARAM_FIELDS = {"gauss_swgts": "precision_scale", "ucb1": "ucb_alpha", "sw_ucb": "sw_xi"}


def _policy_under_test(kind, num_arms, horizon, window, forced, seed):
    params = {PARAM_FIELDS[kind]: ORACLE_PARAMS[kind]} if kind in PARAM_FIELDS else {}
    if kind == "ucb1":
        window = None  # the oracle's UCB1 keeps lifetime statistics: the default window
    return build(kind, num_arms, horizon, window=window, forced=forced, seed=seed, **params)


class TestRingMatchesDequeOracle:
    """The ring-buffer policies make the same selections, consume the same
    random numbers and keep bit-identical window statistics as the deque
    implementation, round by round."""

    HORIZON = 300

    def _replay(self, kind, num_arms, window, forced, rewards):
        horizon = self.HORIZON
        window = horizon if window is None else window
        seed = 1000 * num_arms + window + forced
        policy = _policy_under_test(kind, num_arms, horizon, window, forced, seed)
        oracle = _DequeOracle(
            kind, num_arms, horizon, window, forced, rng(seed), ORACLE_PARAMS[kind]
        )
        reward_rng = np.random.default_rng(seed + 1)
        success = reward_rng.random(num_arms)
        for t in range(1, horizon + 1):
            arm = policy.select_arm(t)
            assert arm == oracle.select_arm(t), f"round {t}"
            if rewards == "constant":
                reward = 1.0
            elif kind == "beta_swts":
                reward = float(reward_rng.random() < success[arm])
            else:  # not dyadic, so the order of float additions shows
                reward = success[arm] * reward_rng.random()
            policy.update(arm, reward, t)
            oracle.update(arm, reward, t)
            counts, sums = policy.window_lists()
            np.testing.assert_array_equal(counts, oracle.counts)
            assert np.array(sums).tobytes() == oracle.sums.tobytes()
        # both generators must sit at the same point of their streams
        assert policy.rng.random() == oracle.rng.random()
        return oracle

    @pytest.mark.parametrize("forced", [0, 1])
    @pytest.mark.parametrize("window", [1, 7, None])
    @pytest.mark.parametrize("num_arms", [2, 15])
    @pytest.mark.parametrize("kind", list(ORACLE_PARAMS))
    def test_same_selections_and_statistics(self, kind, num_arms, window, forced):
        self._replay(kind, num_arms, window, forced, rewards="random")

    @pytest.mark.parametrize("window", [60, None])
    @pytest.mark.parametrize("num_arms", [2, 15])
    @pytest.mark.parametrize("kind", ["ucb1", "sw_ucb"])
    def test_exact_index_ties(self, kind, num_arms, window):
        # equal rewards make arms with equal counts tie exactly, so the
        # tie-break draws must match too
        oracle = self._replay(kind, num_arms, window, 0, rewards="constant")
        assert oracle.ties > 0

    def test_empty_window_reentry(self):
        # window 7 over 15 arms empties windows all the time; the Gaussian
        # and both UCB policies pull such arms outright, lowest index first
        # (the oracle runs ucb1 only at its full window, so build it here)
        for policy in (
            _policy_under_test("gauss_swgts", 15, self.HORIZON, 7, 0, 3),
            _policy_under_test("sw_ucb", 15, self.HORIZON, 7, 0, 3),
            build("ucb1", 15, self.HORIZON, window=7, seed=3),
        ):
            for t in range(1, 60):
                counts = list(policy.window_lists()[0])
                arm = policy.select_arm(t)
                if 0 in counts:
                    assert arm == counts.index(0)
                policy.update(arm, 1.0, t)


def _whole_array_index(kind, policy, t, generator):
    """The selection values by the whole-array formulas the per-arm cache
    replaced, recomputed from the public window statistics; entries of
    empty windows are meaningless for the kinds that never read them."""
    counts, sums = map(np.array, policy.window_lists())
    if kind == "beta_swts":
        return generator.beta(sums + 1.0, counts - sums + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "gauss_swgts":
            means = sums / counts
            scales = np.sqrt(1.0 / (policy.param * counts))
            return means + scales * generator.standard_normal(policy.num_arms)
        bonus = np.sqrt(policy.param * math.log(min(t, policy.window)) / counts)
        return sums / counts + bonus


class TestIndexCache:
    """Each kind caches two index inputs per arm and refreshes them for the
    pulled and the evicted arm only; after every update its index must
    equal the whole-array formula bit for bit, on copies of one generator
    state.  Window 1 over one arm evicts the
    pulled arm every round; window 7 over 15 arms empties and refills
    windows all the time; K = ``_LIST_ARMS`` and one more put every kind
    on either side of its choice between list and array index inputs (for
    Beta-TS, per-arm and array draws, whose generator must end where the
    oracle's does); window 60 over 15 arms fills every window, so array
    Beta-TS draws from its interleaved gammas and the UCB kinds keep their
    index, which a full-horizon window never does.  Integer parameters stay
    ``int`` in the config and must give the same bits."""

    HORIZON = 200

    def _replay(self, kind, param, num_arms, window, forced):
        """Checks the index after every update, on a copy of the policy so
        that the check itself keeps no index; returns the policy and the
        number of rounds after which no arm's window was empty."""
        params = {} if param is None else {PARAM_FIELDS[kind]: param}
        policy = build(kind, num_arms, self.HORIZON, window, forced, seed=window, **params)
        assert policy.param == param and type(policy.param) is type(param)
        reward_rng = rng(num_arms)
        full = 0
        for t in range(1, self.HORIZON):
            arm = policy.select_arm(t)
            reward = reward_rng.random()
            policy.update(arm, float(reward < 0.5) if kind == "beta_swts" else reward, t)
            counts = policy.window_lists()[0]
            full += 0 not in counts
            read = np.array(counts) > 0 if policy.pulls_empty_arms else slice(None)
            oracle_rng = copy.deepcopy(policy.rng)
            probe = copy.deepcopy(policy)
            cached = probe._index(t + 1)
            drawn = probe.rng.bit_generator.state
            recomputed = _whole_array_index(kind, policy, t + 1, oracle_rng)
            assert drawn == oracle_rng.bit_generator.state, f"round {t}"
            assert np.asarray(cached)[read].tobytes() == recomputed[read].tobytes(), f"round {t}"
        return policy, full

    @pytest.mark.parametrize("forced", [0, 1])
    @pytest.mark.parametrize(
        "num_arms, window",
        [
            (1, 1),
            (3, 1),
            (15, 7),
            (4, 40),
            (_LIST_ARMS, 12),
            (_LIST_ARMS + 1, 12),
            (15, 60),
            (15, HORIZON),
        ],
    )
    @pytest.mark.parametrize(
        "kind, param",
        [
            ("beta_swts", None),
            ("gauss_swgts", 0.7),
            ("gauss_swgts", 1),
            ("ucb1", 2.0),
            ("sw_ucb", 0.6),
            ("sw_ucb", 1),
        ],
    )
    def test_index_matches_whole_array_formula(self, kind, param, num_arms, window, forced):
        policy, full = self._replay(kind, param, num_arms, window, forced)
        if (num_arms, window) == (15, 60):
            assert full, "no round had every window filled"
        if kind in ("ucb1", "sw_ucb"):
            # only a window shorter than the horizon can keep its index
            assert isinstance(policy, KeptIndexUCB) == (window < self.HORIZON)

    @pytest.mark.parametrize("num_arms, window, forced", [(4, 5, 3), (15, 20, 2)])
    @pytest.mark.parametrize("param", [0.6, 1])
    def test_sw_ucb_index_kept_from_past_a_long_forced_phase(self, param, num_arms, window, forced):
        # the first index is computed at round K * forced + 1 > window + 1,
        # already past the rounds whose log(min(t, window)) still grows
        assert num_arms * forced > window + 1
        policy, _ = self._replay("sw_ucb", param, num_arms, window, forced)
        assert policy._kept is not None
