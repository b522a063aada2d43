"""One forked child beside this process, for verify and the profile writer."""

from __future__ import annotations

import contextlib
import os
import pickle


def cpus() -> int:
    """CPUs that a forked child may use: the ones this process may run on,
    or 1 where the platform cannot fork.  Callers look it up on this module,
    so one patch governs them all."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def child(fn, error=ChildProcessError):
    """Run ``fn()`` in one forked child while the block runs here; yield a
    callable that returns the child's result or raises its exception.

    The child pickles either back through a pipe and always ends in
    ``os._exit``; one that dies before it has sent all of it, as under the
    OOM killer, raises ``error`` with its exit code.  Leaving the block reaps the child,
    also when the block raises, whose exception then wins.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller
        try:
            os.close(read_fd)
            try:
                result = True, fn()
            except BaseException as exc:
                result = False, exc
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    exit_codes = []

    def result():
        try:  # unpickled as it arrives, so the bytes are never held whole
            ok, value = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):  # nothing, or cut short
            ok, value = False, None
        exit_codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        if not ok:
            raise value or error("the forked process sent no result (exit"
                                 " code %d)" % exit_codes[0])
        return value

    try:
        yield result
    finally:
        pipe.close()
        if not exit_codes:
            os.waitpid(pid, 0)
