"""The fork layer: task order, worker shares and failures, on its own and
under the harness."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import no_child_left
from srrb.cli import main
from srrb.harness import run_batch
from srrb.policies import PolicyConfig
from srrb.workers import run_tasks, usable_cores
from test_harness import _experiment, stationary


def _raise_at(failing):
    """A task function returning its task, and raising ``ValueError``
    naming it at each task of ``failing``."""
    def fn(task):
        if task in failing:
            raise ValueError(f"task {task}")
        return task
    return fn


class TestRunTasks:
    """A non-simulation task list: results in task order, task ``i`` on
    worker ``i % min(parallelism, tasks)``, worker 0 the caller."""

    @pytest.mark.parametrize("parallelism, children", [(1, 0), (2, 1), (3, 2), (8, 6)])
    def test_results_in_task_order_from_their_workers(self, forks, parallelism, children):
        results = run_tasks(lambda task: (task * task, os.getpid()), range(7), parallelism)
        assert [value for value, _ in results] == [task * task for task in range(7)]
        workers = [os.getpid(), *forks]
        assert len(forks) == children
        assert [pid for _, pid in results] == [workers[i % len(workers)] for i in range(7)]
        assert no_child_left()

    def test_a_worker_keeps_its_state_from_task_to_task(self, forks):
        done = []  # each worker's own copy, as the caller left it at the fork
        results = run_tasks(lambda task: done.append(task) or tuple(done), range(6), 2)
        assert results == [(0,), (1,), (0, 2), (1, 3), (0, 2, 4), (1, 3, 5)]
        assert done == [0, 2, 4] and len(forks) == 1 and no_child_left()

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_empty_list_forks_nothing(self, forks, parallelism):
        assert run_tasks(_raise_at(()), [], parallelism) == []
        assert forks == [] and no_child_left()

    # 5 on worker 1 at two workers and on worker 2 at three, 9 on worker 1
    # and worker 0; 4 on worker 0 and worker 1; 3 on worker 1 and worker 0
    @pytest.mark.parametrize("failing, lowest", [({9, 5}, 5), ({4, 6, 11}, 4), ({3, 10}, 3)])
    def test_lowest_index_failure_is_raised_whichever_worker_hits_it(self, forks, failing,
                                                                       lowest):
        for parallelism in (1, 2, 3):
            with pytest.raises(ValueError, match=f"^task {lowest}$"):
                run_tasks(_raise_at(failing), range(12), parallelism)
            assert no_child_left()
        assert len(forks) == 3

    def test_child_that_dies_mid_share_raises_naming_it(self, forks):
        caller, done = os.getpid(), []

        def dying(task):
            if os.getpid() != caller:
                done.append(task)
                if len(done) == 2:
                    os._exit(3)
            return task

        with pytest.raises(RuntimeError, match="exited with status 3 without its results") as info:
            run_tasks(dying, range(8), 2)
        assert str(info.value).startswith(f"worker {forks[0]} ")
        assert no_child_left()

    def test_without_fork_the_caller_runs_every_task(self, monkeypatch):
        import srrb.workers

        monkeypatch.delattr(srrb.workers.os, "fork")
        assert run_tasks(lambda task: (task, os.getpid()), range(4), 3) == [
            (task, os.getpid()) for task in range(4)]

    def test_parallelism_below_one_rejected(self):
        with pytest.raises(ValueError, match="parallelism must be >= 1"):
            run_tasks(_raise_at(()), range(3), 0)

    def test_usable_cores_are_this_process_affinity(self):
        expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count()
        assert usable_cores() == expected >= 1


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
            assert not out.exists() and no_child_left()
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
        with pytest.raises(RuntimeError, match="exited with status 3 without its results"):
            run_batch(stationary([0.6, 0.5], horizon=100), PolicyConfig(kind="beta_swts"),
                      runs=9, parallelism=3)
        assert no_child_left()

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
        assert no_child_left()

    def test_child_of_a_killed_caller_exits(self):
        import srrb.harness

        # the child holds the caller's output pipes, so subprocess.run returns once it exits
        src = str(Path(srrb.harness.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", _KILLED_CALLER], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == -signal.SIGKILL

