"""Monte-Carlo experiment runner.

Child run seeds are derived statelessly from the master seed and the run
index (counter-style hashing via ``numpy.random.SeedSequence``), runs are
aggregated in run-index order, and nothing depends on scheduling, so a
batch is bit-for-bit reproducible at any parallelism level.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .analytics import pseudo_regret, wald_regret_bound
from .curves import _real
from .instance import Instance
from .policies import Policy, PolicyConfig, make_policy

__all__ = [
    "RunRecord",
    "Aggregate",
    "SweepPoint",
    "SweepResult",
    "evaluation_grid",
    "child_seed",
    "run_single",
    "run_batch",
    "sweep",
    "sweep_point",
    "SWEEP_AXES",
]

# the config field each sweep axis sets
_AXIS_FIELDS = {"window_exponent": "window", "forced_pulls": "forced_pulls"}
SWEEP_AXES = tuple(_AXIS_FIELDS)


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

    run_index: int
    grid: np.ndarray  # recorded round indices, starting at 0
    regret: np.ndarray  # cumulative pseudo-regret at each grid round
    pull_counts: np.ndarray  # final lifetime pulls per arm
    pulls: np.ndarray | None = None  # full pull sequence (arm per round)

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

    Each round the policy selects an arm, the environment samples a reward
    at that arm's lifetime pull count (rested semantics), and the policy
    is updated.  Rewards come from a run-local stream derived from
    ``seed``; when a :class:`PolicyConfig` is given the policy stream is a
    sibling child of the same seed, so the whole record is a deterministic
    function of (instance, policy, horizon, seed).
    """
    horizon = instance.horizon if horizon is None else int(horizon)
    if not 1 <= horizon <= instance.horizon:
        raise ValueError(f"horizon must be in [1, {instance.horizon}], got {horizon}")
    if horizon != instance.horizon:
        # re-anchor on the run horizon: the optimal arm, the regret
        # reference, and the uniqueness check all depend on it
        instance = Instance(instance.arms, horizon)
    policy_ss, reward_ss = np.random.SeedSequence(seed).spawn(2)
    laws = [arm.law for arm in instance.arms]
    if isinstance(policy, PolicyConfig):
        policy = make_policy(
            policy, instance.num_arms, horizon, np.random.default_rng(policy_ss), laws
        )
    reward_rng = np.random.default_rng(reward_ss)
    grid = evaluation_grid(horizon, stride)

    counts = [0] * instance.num_arms
    pulls = []
    for t in range(1, horizon + 1):
        arm = policy.select_arm(t)
        n = counts[arm] + 1
        counts[arm] = n
        mean = instance.expected_reward(arm, n)
        policy.update(arm, laws[arm].sample(reward_rng, mean), t)
        pulls.append(arm)

    pulls = np.array(pulls, dtype=np.int32)
    regret = np.concatenate(([0.0], pseudo_regret(instance, pulls)))
    return RunRecord(
        run_index=0,
        grid=grid,
        regret=regret[grid],
        pull_counts=np.array(counts, dtype=np.int64),
        pulls=pulls if record_pulls else None,
    )


_WORKER_STATE: dict = {}


def _init_worker(instance, config, horizon, stride):
    _WORKER_STATE["args"] = (instance, config, horizon, stride)


def _run_indexed(task):
    run_index, seed = task
    instance, config, horizon, stride = _WORKER_STATE["args"]
    return _execute_run(instance, config, horizon, stride, run_index, seed)


def _execute_run(instance, config, horizon, stride, run_index, seed):
    record = run_single(instance, config, horizon, seed=seed, record_pulls=False, stride=stride)
    record.run_index = run_index
    bound = wald_regret_bound(instance, record.pull_counts)
    if record.final_regret > bound + 1e-9:
        raise AssertionError(
            f"run {run_index}: trajectory regret {record.final_regret} exceeded "
            f"its pull-count bound {bound}"
        )
    return record


def run_batch(
    instance: Instance,
    config: PolicyConfig,
    horizon: int | None = None,
    runs: int = 1,
    master_seed: int = 0,
    parallelism: int = 1,
    stride: int | None = None,
) -> Aggregate:
    """Run ``runs`` independent trajectories and aggregate them.

    Every run's final regret is checked against its pull-count regret
    bound as a safety net.  Aggregation is a sequential reduce over run
    indices, so parallelism never changes the result.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    horizon = instance.horizon if horizon is None else int(horizon)
    if horizon != instance.horizon:
        # slice once here so workers skip the per-run rebuild
        instance = Instance(instance.arms, horizon)
    tasks = [(r, child_seed(master_seed, r)) for r in range(runs)]
    if parallelism == 1 or runs == 1:
        records = [_execute_run(instance, config, horizon, stride, r, s) for r, s in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=min(parallelism, runs),
            initializer=_init_worker,
            initargs=(instance, config, horizon, stride),
        ) as pool:
            records = list(pool.map(_run_indexed, tasks, chunksize=max(1, runs // (4 * parallelism))))

    trajectories = np.stack([rec.regret for rec in records])
    all_counts = np.stack([rec.pull_counts for rec in records])
    return Aggregate(
        grid=records[0].grid,
        mean_regret=trajectories.mean(axis=0),
        std_regret=trajectories.std(axis=0),
        mean_pull_counts=all_counts.mean(axis=0),
        runs=runs,
        master_seed=master_seed,
        horizon=horizon,
    )


@dataclass
class SweepPoint:
    axis_value: float
    resolved: int  # the window or forced-pull count actually used
    mean_final_regret: float
    std_final_regret: float


@dataclass
class SweepResult:
    axis: str
    points: list[SweepPoint] = field(default_factory=list)


def sweep_point(config: PolicyConfig, axis: str, value, horizon: int) -> PolicyConfig:
    """The configuration of one sweep grid point.

    ``window_exponent`` maps a finite real a to a window of round(T^a)
    clamped to [1, T]; ``forced_pulls`` takes the value as the count, so it
    must pass that field's check.
    """
    if axis == "window_exponent":
        exponent = _real("window_exponent", value)
        # T^a >= T for a >= 1, so clamping a first keeps the power finite
        window = int(min(max(round(horizon ** min(exponent, 1.0)), 1), horizon))
        return replace(config, window=window)
    if axis == "forced_pulls":
        return replace(config, forced_pulls=value)
    raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")


def sweep(
    instance: Instance,
    base_config: PolicyConfig,
    axis: str,
    grid,
    runs: int = 1,
    master_seed: int = 0,
    parallelism: int = 1,
    stride: int | None = None,
) -> SweepResult:
    """Sensitivity sweep along one configuration axis.

    Every run spans the instance's horizon.  Every grid point's
    configuration is built by :func:`sweep_point` before the first batch
    runs.  Each grid point gets an independent seed derived from (master
    seed, axis index).
    """
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    configs = [sweep_point(base_config, axis, value, instance.horizon) for value in grid]
    result = SweepResult(axis=axis)
    for j, (value, config) in enumerate(zip(grid, configs)):
        agg = run_batch(
            instance,
            config,
            runs=runs,
            master_seed=child_seed(master_seed, j),
            parallelism=parallelism,
            stride=stride,
        )
        result.points.append(
            SweepPoint(
                axis_value=float(value),
                resolved=getattr(config, _AXIS_FIELDS[axis]),
                mean_final_regret=float(agg.mean_regret[-1]),
                std_final_regret=float(agg.std_regret[-1]),
            )
        )
    return result
