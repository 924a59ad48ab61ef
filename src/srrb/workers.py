"""The one process layer: a list of independent tasks split between the
calling process and ``os.fork`` children.

Task ``i`` runs on worker ``i % min(parallelism, tasks)``: worker 0 is the
caller, the others forked children (none without ``os.fork``) that pickle
their results back through a pipe.  The results come back in task order,
so a caller that reduces them in that order gets the same result at any
worker count.  The harness runs its simulations through it and the
verify suites their independent cases; it imports nothing of either.
"""

from __future__ import annotations

import os
import pickle
import signal

__all__ = ["run_tasks", "usable_cores"]


def usable_cores() -> int:
    """The cores this process may run on (``taskset`` caps them), or the
    machine's where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _share(fn, tasks, worker, workers):
    """Run every ``workers``-th task from index ``worker`` until one raises:
    the results, and that failure's ``(task index, exception)`` or None."""
    results = []
    for i in range(worker, len(tasks), workers):
        try:
            results.append(fn(tasks[i]))
        except Exception as exc:
            return results, (i, exc)
    return results, None


def run_tasks(fn, tasks, parallelism: int = 1) -> list:
    """``[fn(task) for task in tasks]``, split between the caller and
    ``min(parallelism, len(tasks)) - 1`` forked children.

    Each worker stops at its first failing task, and the call raises the
    lowest-indexed failure, the one a serial run raises.  A child that
    exits without its results raises ``RuntimeError``; no child outlives
    the call.  A worker runs its tasks in index order, so ``fn`` may keep
    state from one of its tasks to the next; each child starts from the
    caller's state at the fork.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    tasks = list(tasks)
    workers = min(parallelism, max(len(tasks), 1)) if hasattr(os, "fork") else 1
    children = []  # (pid, read end of its pipe) of each forked worker not yet reaped
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipe = os.fdopen(read_fd, "rb")
            with os.fdopen(write_fd, "wb") as out:  # the parent's copy closes once forked
                if (pid := os.fork()) == 0:  # leave by os._exit, with 0 once the share is written
                    try:
                        pipe.close()  # so a write fails, not blocks, if the parent is gone
                        pickle.dump(_share(fn, tasks, w, workers), out, -1)
                        out.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
            children.append((pid, pipe))
        shares = [_share(fn, tasks, 0, workers)]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status:
                raise RuntimeError(f"worker {pid} exited with status {status} without its results")
            shares.append(pickle.loads(data))
    except BaseException:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    failures = [failure for _, failure in shares if failure]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]  # what a serial run raises
    return [shares[i % workers][0][i // workers] for i in range(len(tasks))]
