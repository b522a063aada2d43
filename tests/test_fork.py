"""Tests for the one forked child: a child that dies part-way through its
message is reported with its exit code, and reaped."""

import os
import signal
import time

import pytest

from eigenmin import _fork

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")


class _DiesWhilePickled:
    def __reduce__(self):
        os._exit(9)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_that_dies_between_objects_names_its_exit_code():
    # The string fills the pipe before the child dies, so this process has
    # read part of the message when it ends.
    with pytest.raises(ChildProcessError, match=r"sent no result \(exit code 9\)$"):
        with _fork.child(lambda: ["x" * 10 ** 6, _DiesWhilePickled()]) as result:
            result()
    _no_child_left()


def test_child_killed_inside_an_object_names_its_signal(monkeypatch):
    # The child blocks in writing a string larger than the pipe holds, and
    # is killed there, as by the OOM killer: the message ends mid-string.
    pids = []
    real_fork = os.fork

    def fork():
        pids.append(real_fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(ChildProcessError, match=r"sent no result \(exit code -9\)$"):
        with _fork.child(lambda: "x" * 10 ** 7) as result:
            time.sleep(0.5)
            os.kill(pids[0], signal.SIGKILL)
            result()
    _no_child_left()
