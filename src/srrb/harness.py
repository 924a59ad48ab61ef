"""Monte-Carlo experiment runner.

Child run seeds are derived statelessly from the master seed and the run
index (counter-style hashing via ``numpy.random.SeedSequence``) and runs
reduce in run-index order, so a batch is bit-for-bit the same whether its
runs stay in the calling process or are split with ``os.fork`` children.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
from dataclasses import dataclass, replace

import numpy as np

from .analytics import pseudo_regret, wald_regret_bound
from .curves import _real
from .instance import Instance
from .policies import Policy, PolicyConfig, make_policy

__all__ = [
    "RunRecord",
    "Aggregate",
    "evaluation_grid",
    "child_seed",
    "run_single",
    "run_batch",
    "run_batches",
    "sweep_batches",
    "SWEEP_AXES",
]

_UNIFORM_BLOCK = 1024  # reward uniforms drawn per generator call
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


class _Uniforms:
    """The reward laws' :class:`~srrb.curves.UniformSource` over ``rng``:
    ``random()`` returns the doubles of scalar ``rng.random()`` calls, in
    order, drawn ``_UNIFORM_BLOCK`` at a time from the first call on."""

    def __init__(self, rng: np.random.Generator):
        blocks = iter(lambda: rng.random(_UNIFORM_BLOCK).tolist(), None)
        self.random = itertools.chain.from_iterable(blocks).__next__


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
    ``seed`` and drawn in blocks; when a :class:`PolicyConfig` is given the
    policy stream is a sibling child of the same seed, so the whole record
    is a deterministic function of (instance, policy, horizon, seed).
    """
    instance = instance.at_horizon(horizon)
    horizon = instance.horizon
    policy_ss, reward_ss = np.random.SeedSequence(seed).spawn(2)
    laws = [arm.law for arm in instance.arms]
    if isinstance(policy, PolicyConfig):
        policy = make_policy(
            policy, instance.num_arms, horizon, np.random.default_rng(policy_ss), laws
        )
    uniforms = _Uniforms(np.random.default_rng(reward_ss))
    grid = evaluation_grid(horizon, stride)

    # bound once; each call still goes to the objects given, proxies included
    select_arm, update, expected_reward = policy.select_arm, policy.update, instance.expected_reward
    samplers = [law.sample for law in laws]
    counts = [0] * instance.num_arms
    pulls = []
    for t in range(1, horizon + 1):
        arm = select_arm(t)
        n = counts[arm] + 1
        counts[arm] = n
        update(arm, samplers[arm](uniforms, expected_reward(arm, n)), t)
        pulls.append(arm)

    pulls = np.array(pulls, dtype=np.int32)
    regret = np.concatenate(([0.0], pseudo_regret(instance, pulls)))
    return RunRecord(
        grid=grid,
        regret=regret[grid],
        pull_counts=np.array(counts, dtype=np.int64),
        pulls=pulls if record_pulls else None,
    )


def _checked_run(instance, stride, config, run_index, seed) -> RunRecord:
    """One run of a batch, checked against its pull-count regret bound."""
    record = run_single(instance, config, seed=seed, record_pulls=False, stride=stride)
    bound = wald_regret_bound(instance, record.pull_counts)
    if record.final_regret > bound + 1e-9:
        raise AssertionError(
            f"run {run_index}: trajectory regret {record.final_regret} exceeded "
            f"its pull-count bound {bound}"
        )
    return record


def _run_share(instance, stride, tasks, worker, workers):
    """Run every ``workers``-th task from index ``worker`` until one raises:
    the records, and that failure's ``(task index, exception)`` or None."""
    records = []
    for i in range(worker, len(tasks), workers):
        try:
            records.append(_checked_run(instance, stride, *tasks[i]))
        except Exception as exc:
            return records, (i, exc)
    return records, None


def run_batches(
    instance: Instance, batches, parallelism: int = 1, stride: int | None = None
) -> list[Aggregate]:
    """Run several batches of ``(config, runs, master_seed)`` on one
    instance, each run spanning the instance's horizon.

    Every batch's config is resolved for the instance first, so a bad one
    fails before any run starts.  All runs of all batches form one task
    list; task ``i`` runs on worker ``i % min(parallelism, tasks)``: worker
    0 is the caller, the others forked children (none without ``os.fork``)
    that pipe their records back.  Run ``r`` of a batch is seeded by
    ``child_seed(master_seed, r)`` and checked against its pull-count
    regret bound; the call raises the failure a serial run would, and no
    child outlives it.  Each batch reduces its runs in run-index order, so
    parallelism never changes a result.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    batches = list(batches)
    if any(runs < 1 for _, runs, _ in batches):
        raise ValueError("runs must be >= 1")
    laws = [arm.law for arm in instance.arms]
    for config, _, _ in batches:
        config.resolve(instance.horizon, laws)
    tasks = [(cfg, r, child_seed(seed, r)) for cfg, runs, seed in batches for r in range(runs)]
    workers = min(parallelism, len(tasks)) if hasattr(os, "fork") else 1
    children = []  # (pid, read end of its pipe) of each forked worker not yet reaped
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipe = os.fdopen(read_fd, "rb")
            with os.fdopen(write_fd, "wb") as out:  # the parent's copy closes once forked
                if (pid := os.fork()) == 0:  # leave by os._exit, with 0 once the share is written
                    try:
                        pipe.close()  # so a write fails, not blocks, if the parent is gone
                        pickle.dump(_run_share(instance, stride, tasks, w, workers), out, -1)
                        out.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
            children.append((pid, pipe))
        shares = [_run_share(instance, stride, tasks, 0, workers)]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status:
                raise RuntimeError(f"worker {pid} exited with status {status} without its runs")
            shares.append(pickle.loads(data))
    except BaseException:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    failures = [failure for _, failure in shares if failure]
    if failures:
        raise min(failures)[1]  # the lowest task index: the failure a serial run raises
    records = [shares[i % workers][0][i // workers] for i in range(len(tasks))]
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
