"""Monte-Carlo experiment runner.

Child run seeds are derived statelessly from the master seed and the run
index (counter-style hashing via ``numpy.random.SeedSequence``) and runs
reduce in run-index order, so a batch is bit-for-bit the same whether its
runs stay in the calling process or are split with ``os.fork`` children
(:func:`srrb.workers.run_tasks`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .curves import _real
from .instance import Instance
from .policies import Policy, PolicyConfig, make_policy
from .workers import run_tasks

__all__ = [
    "RunRecord",
    "Aggregate",
    "evaluation_grid",
    "child_seed",
    "run_single",
    "run_batch",
    "run_batches",
    "sweep_batches",
    "wald_regret_bound",
    "SWEEP_AXES",
]

_UNIFORM_BLOCK = 1024  # most reward uniforms drawn per generator call
# the config field each sweep axis sets
SWEEP_AXES = {"window_exponent": "window", "forced_pulls": "forced_pulls"}


def evaluation_grid(horizon: int, stride: int | None = None) -> np.ndarray:
    """Round indices at which trajectories are recorded: 0, stride,
    2*stride, ..., always ending exactly at the horizon.

    The default stride keeps at most 10^4 interior points.
    """
    if stride is None:
        stride = max(1, horizon // 10_000)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    grid = np.arange(0, horizon + 1, stride, dtype=np.int64)
    if grid[-1] != horizon:
        grid = np.append(grid, horizon)
    return grid


def child_seed(master_seed: int, *key: int) -> int:
    """Stateless 64-bit seed for a child stream keyed by integers."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class RunRecord:
    """One simulated trajectory."""

    grid: np.ndarray  # recorded round indices, starting at 0
    regret: np.ndarray  # cumulative pseudo-regret at each grid round
    pull_counts: np.ndarray  # final lifetime pulls per arm

    @property
    def final_regret(self) -> float:
        return float(self.regret[-1])


@dataclass
class Aggregate:
    """Per-grid-point regret statistics across a batch of runs.

    The standard deviation uses the population convention (divide by the
    number of runs).
    """

    grid: np.ndarray
    mean_regret: np.ndarray
    std_regret: np.ndarray
    mean_pull_counts: np.ndarray
    runs: int
    master_seed: int
    horizon: int

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "master_seed": self.master_seed,
            "horizon": self.horizon,
            "grid": self.grid.tolist(),
            "mean_regret": self.mean_regret.tolist(),
            "std_regret": self.std_regret.tolist(),
            "mean_pull_counts": self.mean_pull_counts.tolist(),
        }


def run_single(
    instance: Instance,
    policy: Policy | PolicyConfig,
    horizon: int | None = None,
    seed: int = 0,
    record_pulls: bool = True,
    stride: int | None = None,
) -> RunRecord:
    """Simulate one trajectory.

    Each round the policy selects an arm, the arm's law maps the round's
    uniform to a reward at the arm's mean mu_i(n) for its lifetime pull
    count n (rested semantics), and the policy is updated.  The regret is
    the running sum of mu*(t) - mu_i(n), mu* the optimal arm's curve of
    the instance cut to ``horizon``.  Round t takes the t-th double that
    scalar ``random()`` calls on a run-local generator derived from
    ``seed`` would give, drawn in blocks; when a :class:`PolicyConfig` is
    given the policy stream is a sibling child of the same seed, so the
    whole record is a deterministic function of (instance, policy,
    horizon, seed).  ``record_pulls`` is accepted and ignored.
    """
    instance = instance.at_horizon(horizon)
    horizon = instance.horizon
    policy_ss, reward_ss = np.random.SeedSequence(seed).spawn(2)
    laws = [arm.law for arm in instance.arms]
    if isinstance(policy, PolicyConfig):
        policy = make_policy(
            policy, instance.num_arms, horizon, np.random.default_rng(policy_ss), laws
        )
    reward_rng = np.random.default_rng(reward_ss)
    block = min(horizon, _UNIFORM_BLOCK)
    blocks = iter(lambda: reward_rng.random(block).tolist(), None)
    grid = evaluation_grid(horizon, stride)

    # bound once; each call still goes to the objects given, proxies included
    select_arm, update, expected_reward = policy.select_arm, policy.update, instance.expected_reward
    samplers = [law.sample for law in laws]
    counts = [0] * instance.num_arms
    means = []
    for t, u in zip(range(1, horizon + 1), itertools.chain.from_iterable(blocks)):
        arm = select_arm(t)
        n = counts[arm] + 1
        counts[arm] = n
        mean = expected_reward(arm, n)
        update(arm, samplers[arm](u, mean), t)
        means.append(mean)

    regret = np.zeros(horizon + 1)
    # cumsum adds in sequence, so each entry is bit for bit a round loop's running sum
    np.cumsum(instance.expected_rewards(instance.optimal_arm) - means, out=regret[1:])
    return RunRecord(grid=grid, regret=regret[grid], pull_counts=np.array(counts, dtype=np.int64))


def wald_regret_bound(instance: Instance, pull_counts) -> float:
    """Upper estimate of the trajectory regret from final pull counts:
    sum over suboptimal arms of (mu*(T) - mu_i(1)) * N_i.

    Monotonicity of the curves makes this dominate the pseudo-regret of
    every trajectory with those counts.
    """
    counts = np.asarray(pull_counts, dtype=np.int64)
    if counts.size != instance.num_arms:
        raise ValueError("need one pull count per arm")
    if counts.min() < 0 or counts.sum() > instance.horizon:
        raise ValueError("pull counts must be non-negative and sum to at most the horizon")
    star = instance.optimal_arm
    total = 0.0
    for i in range(instance.num_arms):
        if i == star:
            continue
        gap = max(0.0, instance.expected_reward(star, instance.horizon) - instance.expected_reward(i, 1))
        total += gap * int(counts[i])
    return total


def _checked_run(instance, stride, task) -> RunRecord:
    """One run of a batch, checked against its pull-count regret bound."""
    config, run_index, seed = task
    record = run_single(instance, config, seed=seed, stride=stride)
    bound = wald_regret_bound(instance, record.pull_counts)
    if record.final_regret > bound + 1e-9:
        raise AssertionError(
            f"run {run_index}: trajectory regret {record.final_regret} exceeded "
            f"its pull-count bound {bound}"
        )
    return record


def run_batches(
    instance: Instance, batches, parallelism: int = 1, stride: int | None = None
) -> list[Aggregate]:
    """Run several batches of ``(config, runs, master_seed)`` on one
    instance, each run spanning the instance's horizon.

    Every batch's config is resolved for the instance first, so a bad one
    fails before any run starts.  All runs of all batches form one task
    list, which :func:`srrb.workers.run_tasks` splits between the caller
    and ``parallelism - 1`` forked children.  Run ``r`` of a batch is
    seeded by ``child_seed(master_seed, r)`` and checked against its
    pull-count regret bound; the call raises the failure a serial run
    would, and no child outlives it.  Each batch reduces its runs in
    run-index order, so parallelism never changes a result.
    """
    batches = list(batches)
    if any(runs < 1 for _, runs, _ in batches):
        raise ValueError("runs must be >= 1")
    laws = [arm.law for arm in instance.arms]
    # resolved once here, each run's make_policy then takes the config as it is
    batches = [(cfg.resolve(instance.horizon, laws), runs, seed) for cfg, runs, seed in batches]
    tasks = [(cfg, r, child_seed(seed, r)) for cfg, runs, seed in batches for r in range(runs)]
    records = run_tasks(functools.partial(_checked_run, instance, stride), tasks, parallelism)
    aggregates, pending = [], iter(records)
    for _, runs, master_seed in batches:
        batch = [next(pending) for _ in range(runs)]
        trajectories = np.stack([rec.regret for rec in batch])
        all_counts = np.stack([rec.pull_counts for rec in batch])
        aggregates.append(
            Aggregate(
                grid=batch[0].grid,
                mean_regret=trajectories.mean(axis=0),
                std_regret=trajectories.std(axis=0),
                mean_pull_counts=all_counts.mean(axis=0),
                runs=runs,
                master_seed=master_seed,
                horizon=instance.horizon,
            )
        )
    return aggregates


def run_batch(
    instance: Instance,
    config: PolicyConfig,
    horizon: int | None = None,
    runs: int = 1,
    master_seed: int = 0,
    parallelism: int = 1,
    stride: int | None = None,
) -> Aggregate:
    """Run ``runs`` independent trajectories and aggregate them: the
    one-batch view of :func:`run_batches` on the instance cut to
    ``horizon``."""
    batches = [(config, runs, master_seed)]
    return run_batches(instance.at_horizon(horizon), batches, parallelism, stride)[0]


def sweep_batches(
    instance: Instance,
    config: PolicyConfig,
    axis: str,
    grid,
    runs: int = 1,
    master_seed: int = 0,
) -> list[tuple[PolicyConfig, int, int]]:
    """The ``(config, runs, master_seed)`` batches of a sensitivity sweep
    along one configuration axis, one per grid value in grid order, for
    :func:`run_batches`.

    ``window_exponent`` maps a finite real a to a window of round(T^a)
    clamped to [1, T]; ``forced_pulls`` takes the value as the count.
    Each point's config is resolved against the instance's horizon and
    laws, so a bad grid value fails here, before any run.  Grid point j
    is seeded ``child_seed(master_seed, j)``.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    horizon = instance.horizon
    laws = [arm.law for arm in instance.arms]
    batches = []
    for j, value in enumerate(grid):
        if axis == "window_exponent":
            exponent = _real("window_exponent", value)
            # T^a >= T for a >= 1, so clamping a first keeps the power finite
            value = int(min(max(round(horizon ** min(exponent, 1.0)), 1), horizon))
        point = replace(config, **{SWEEP_AXES[axis]: value})
        batches.append((point.resolve(horizon, laws), runs, child_seed(master_seed, j)))
    return batches
