"""The fork-layer helpers that the harness, workers and verify tests share."""

import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child the fork layer forks."""
    import srrb.workers

    started = []
    real = os.fork

    def counting_fork():
        pid = real()
        if pid:
            started.append(pid)
        return pid

    # srrb.workers.os is the os module: the patch holds for this test only
    monkeypatch.setattr(srrb.workers.os, "fork", counting_fork)
    return started


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
