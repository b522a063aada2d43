"""Closed-loop runs of one workload through the in-process CLI.

One client sends one op at a time: ``eigenmin.cli.main(argv)`` in this
process, then the op's gate, then the next op.  A pass runs every op of the
workload once.  An op fails on a nonzero exit code, an uncaught exception or
a failed gate; a failed op gives no time sample.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from eigenmin import cli

import tracing
from workloads import build_ops

SETUP_REPEATS = 7
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
LAYER_TIMES = tuple(tracing.SELF_TIME) + tuple(tracing.TOTAL_TIME)
# per-layer metrics of a --trace 1 run, in output order; "nproc." is the
# pass at the package's default BLAS width
PER_LAYER = (LAYER_TIMES + tuple(tracing.COUNTERS)
             + ("trace.untraced_s", "trace.pass_s", "trace.overhead_s")
             + tuple("nproc." + m for m in LAYER_TIMES + ("trace.pass_s",)))
# one fresh interpreter: import the package and parse one CLI line
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from eigenmin import cli; "
    "cli.build_parser().parse_args(['spectrum', '--surface', 'clifford', '--k', '6'])"
)


@dataclass
class OpResult:
    argv: list
    seconds: float | None  # None when the op failed
    error: str | None = None


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    seconds: float = 0.0  # wall time of the ops that succeeded, gates excluded

    @property
    def sample(self):
        """The pass's time sample: None if any op failed."""
        return None if any(r.seconds is None for r in self.ops) else self.seconds


def run_op(op, tracer=None) -> OpResult:
    """Run one CLI op, time it, then check its output with the op's gate."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                rc = cli.main(list(op.argv))
            else:
                with tracing.instrument(tracer):
                    rc = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects bad flags this way
        rc = exc.code
    except Exception as exc:  # an uncaught exception is a failed op, not a crash
        rc, error = None, "uncaught %s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op(seconds)
        tracer.counters["cli.bytes_written"] += sum(
            p.stat().st_size for p in op.outputs if p.exists())
    if error is None:
        try:
            error = op.gate(rc, stdout.getvalue())
        except Exception as exc:  # unparsable output fails the gate
            error = "gate raised %s: %s" % (type(exc).__name__, exc)
    if error is not None and stderr.getvalue().strip():
        error += " | " + stderr.getvalue().strip().splitlines()[-1]
    return OpResult(op.argv, None if error else seconds, error)


def run_pass(ops, tracer=None) -> PassResult:
    result = PassResult()
    for op in ops:
        r = run_op(op, tracer)
        result.ops.append(r)
        result.seconds += r.seconds or 0.0
    return result


def median_or_none(samples):
    """Median where a failed sample (None) is slower than any success;
    None when that median is a failure."""
    ranked = sorted(samples, key=lambda s: (s is None, s or 0.0))
    n = len(ranked)
    lo, hi = ranked[(n - 1) // 2], ranked[n // 2]
    if lo is None or hi is None:
        return None
    return (lo + hi) / 2.0


def fresh_interpreter_seconds(src: Path) -> float:
    """Wall time of one fresh interpreter importing eigenmin and parsing a line.

    The wait blocks instead of polling (``wait(timeout)`` sleeps in steps of
    up to 50 ms, which would quantize the time); a watchdog kills a hung child.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET, str(src)],
                            stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    if rc != 0:
        raise RuntimeError("importing eigenmin failed with exit code %d" % rc)
    return time.perf_counter() - start


def setup_seconds(src: Path) -> float:
    return statistics.median(fresh_interpreter_seconds(src) for _ in range(SETUP_REPEATS))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(ops, start: float, seconds: float) -> list:
    """Passes until the next one would end after ``start + seconds`` (at least one)."""
    passes = [run_pass(ops)]
    while time.perf_counter() - start + passes[-1].seconds <= seconds:
        passes.append(run_pass(ops))
    return passes


def unit_of(metric: str) -> str:
    base = metric.removeprefix("nproc.")
    if base.endswith("_s"):
        return "s"
    if base.endswith("_mb"):
        return "MB"
    return tracing.COUNTERS[base][0]


def traced_pass(ops):
    tracer = tracing.Tracer()
    result = run_pass(ops, tracer)
    metrics = tracing.layer_metrics(tracer)
    roots = tracing.total_times(tracer.spans)["cli.main"]
    metrics["trace.untraced_s"] = sum(tracer.op_seconds) - roots
    metrics["trace.pass_s"] = result.seconds
    return result, tracer, metrics


def default_width_pass(args) -> dict:
    """Run one traced pass in a fresh interpreter at the default BLAS width."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1", "--default-width-pass"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("default-width pass failed: %s" % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blas_threads() -> list:
    """Each loaded OpenBLAS with its build string and thread count in effect."""
    out = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                        and line.split()[-1].endswith(".so")})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("", "64_"):
            for prefix in ("openblas_", "scipy_openblas_"):
                get_threads = getattr(lib, prefix + "get_num_threads" + suffix, None)
                get_config = getattr(lib, prefix + "get_config" + suffix, None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
        out.append(entry)
    return out


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, args, ops) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "argv": [op.argv for op in ops],
        "nproc": os.cpu_count(),
        "blas": blas_threads(),
        "eigenmin_threads": os.environ.get("EIGENMIN_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
    }


def run(args, root: Path, workdir: Path) -> dict:
    """Measure one workload; returns the result record (env, passes, metrics)."""
    ops = build_ops(args.workload, args.seed, workdir)
    record = {"env": environment(root, args, ops)}
    if args.default_width_pass:
        result, tracer, metrics = traced_pass(ops)
        passes = [result]
        record["spans"] = tracer.spans
    elif args.trace:
        untraced = run_pass(ops)
        result, tracer, metrics = traced_pass(ops)
        metrics["trace.overhead_s"] = result.seconds - untraced.seconds
        child = default_width_pass(args)
        for name in LAYER_TIMES + ("trace.pass_s",):
            metrics["nproc." + name] = child["metrics"][name]["value"]
        passes = [untraced, result]
        record["spans"] = tracer.spans
        record["nproc"] = {k: child[k] for k in ("attempted", "failed")}
    else:
        start = time.perf_counter()
        setup_s = setup_seconds(root / "src")
        passes = run_timed(ops, start, args.seconds)
        metrics = {"setup_s": setup_s,
                   "pass_s": median_or_none([p.sample for p in passes]),
                   "peak_rss_mb": peak_rss_mb()}
    record["passes"] = passes
    record["metrics"] = metrics
    attempted, failed = tally(passes)
    child = record.get("nproc", {"attempted": 0, "failed": 0})
    record["attempted"] = attempted + child["attempted"]
    record["failed"] = failed + child["failed"]
    return record


def tally(passes):
    """(ops attempted, ops failed) over the passes."""
    results = [r for p in passes for r in p.ops]
    return len(results), sum(r.seconds is None for r in results)
