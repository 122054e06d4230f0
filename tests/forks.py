"""Test helpers for kgonal.forked: two CPUs, a fork counter, and the state a fork must leave."""

import os

import pytest


def two_cpus(monkeypatch):
    """Let forked.may_fork see two CPUs: the real mask where it has two, else {0, 1}."""
    if len(os.sched_getaffinity(0)) < 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def spy_forks(monkeypatch):
    """A list that gains one item per os.fork of this process.

    A fork inside a forked child raises AssertionError there, which
    reaches this process as the same class and message.
    """
    forks = []
    fork, parent = os.fork, os.getpid()

    def spy():
        if os.getpid() != parent:
            raise AssertionError("a forked child forked again")
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    return forks


def assert_no_child_left():
    # every child of this process has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_left_clean(mask):
    """No child is left unreaped, and the affinity mask is back to mask."""
    assert_no_child_left()
    assert os.sched_getaffinity(0) == mask
