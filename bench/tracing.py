"""Per-layer spans and counters, recorded from outside the eigenmin package.

A traced pass wraps the public functions listed in TRACED.  Each wrapper
replaces the original on every eigenmin module attribute that refers to it,
which is the name each caller looks up: ``cli`` and ``verify`` import their
names directly, ``eigen.morse_index`` calls ``eigen.solve_lowest`` through
the module global and ``mesh.read_mesh`` calls ``mesh.validate`` the same
way.  The originals come back when the ``instrument`` block ends.

A span has a name, a start, an end and the index of its parent span.  A
layer's self time is its span's duration minus the part of it that child
spans cover.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from eigenmin.eigen import NonConvergence

# (module, function): the span name is "module.function"
TRACED = (
    ("cli", "main"),
    ("verify", "run_all"),
    ("verify", "render_report"),
    ("verify", "report_csv"),
    ("eigen", "solve_lowest"),
    ("eigen", "morse_index"),
    ("mesh", "generate"),
    ("mesh", "validate"),
    ("mesh", "read_mesh"),
    ("mesh", "write_mesh"),
    ("mesh", "mesh_stats"),
    ("fem", "assemble"),
    ("fem", "willmore_energy"),
    ("fem", "takahashi_residual"),
    ("fem", "coordinate_gradient_identity"),
    ("trial", "sweep_beta"),
    ("trial", "truncation_profile"),
    ("canonical", "geodesic_distance"),
)

# metric -> span whose self time (duration minus child coverage) it sums
SELF_TIME = {
    "eigen.solve_lowest_s": "eigen.solve_lowest",
    "eigen.morse_index_s": "eigen.morse_index",
    "mesh.generate_s": "mesh.generate",
    "mesh.validate_s": "mesh.validate",
    "mesh.read_mesh_s": "mesh.read_mesh",
    "mesh.write_mesh_s": "mesh.write_mesh",
    "mesh.mesh_stats_s": "mesh.mesh_stats",
    "fem.assemble_s": "fem.assemble",
    "fem.willmore_s": "fem.willmore_energy",
    "fem.takahashi_s": "fem.takahashi_residual",
    "fem.gradient_identity_s": "fem.coordinate_gradient_identity",
    "trial.sweep_beta_s": "trial.sweep_beta",
    "trial.truncation_profile_s": "trial.truncation_profile",
    "canonical.geodesic_distance_s": "canonical.geodesic_distance",
    "verify.self_s": "verify.run_all",
    "verify.render_report_s": "verify.render_report",
    "verify.report_csv_s": "verify.report_csv",
    "cli.self_s": "cli.main",
}
# metric -> span whose whole duration it sums
TOTAL_TIME = {
    "eigen.morse_index_total_s": "eigen.morse_index",
    "verify.run_all_s": "verify.run_all",
    "cli.main_s": "cli.main",
}
# counters: metric -> (unit, better)
COUNTERS = {
    "eigen.solve_lowest_calls": ("count", "lower"),
    "eigen.solves_per_level": ("ratio", "lower"),
    "eigen.iterations": ("count", "lower"),
    "eigen.pairs_computed": ("count", "lower"),
    "eigen.worst_residual": ("residual", "lower"),
    "eigen.nonconvergence": ("count", "lower"),
    "mesh.mesh_stats_calls": ("count", "lower"),
    "mesh.bytes": ("B", "lower"),
    "fem.assemble_calls": ("count", "lower"),
    "fem.nnz": ("count", "lower"),
    "trial.betas": ("count", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "cli.bytes_written": ("B", "lower"),
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the root


def _solve_key(args, kwargs):
    """Identity of the pencil a solve_lowest call works on (its stiffness)."""
    ops = args[0] if args else kwargs["ops"]
    return id(ops.stiffness if hasattr(ops, "stiffness") else ops[0])


def _observe_solve(tracer, args, kwargs, result, exc):
    c = tracer.counters
    c["eigen.solve_lowest_calls"] += 1
    tracer.pencils.add(_solve_key(args, kwargs))
    if isinstance(exc, NonConvergence):
        c["eigen.nonconvergence"] += 1
    if result is not None:
        c["eigen.iterations"] += result.iterations
        c["eigen.pairs_computed"] += len(result.eigenvalues)
        c["eigen.worst_residual"] = max(c["eigen.worst_residual"],
                                        float(result.residuals.max()))


def _observe_assemble(tracer, args, kwargs, result, exc):
    tracer.counters["fem.assemble_calls"] += 1
    if result is not None:
        tracer.counters["fem.nnz"] += result.stiffness.nnz + result.mass.nnz


def _observe_mesh_file(tracer, args, kwargs, result, exc):
    path = args[-1] if args else kwargs["path"]
    if exc is None:
        tracer.counters["mesh.bytes"] += Path(path).stat().st_size


def _observe_sweep(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counters["trial.betas"] += len(result)


def _observe_run_all(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counters["verify.checks"] += len(result.checks)
        tracer.counters["verify.checks_failed"] += sum(not c.passed for c in result.checks)


def _observe_mesh_stats(tracer, args, kwargs, result, exc):
    tracer.counters["mesh.mesh_stats_calls"] += 1


OBSERVERS = {
    "eigen.solve_lowest": _observe_solve,
    "fem.assemble": _observe_assemble,
    "mesh.read_mesh": _observe_mesh_file,
    "mesh.write_mesh": _observe_mesh_file,
    "mesh.mesh_stats": _observe_mesh_stats,
    "trial.sweep_beta": _observe_sweep,
    "verify.run_all": _observe_run_all,
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters = defaultdict(float)
        self.pencils: set = set()  # distinct pencils solved, for solves_per_level
        self.op_seconds: list = []  # wall time of each traced CLI op
        self._stack: list = []

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the index so children can point at it
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(index, name, start, parent)
                if observe:
                    observe(self, args, kwargs, None, exc)
                raise
            self._close(index, name, start, parent)
            if observe:
                observe(self, args, kwargs, result, None)
            return result

        return traced

    def _close(self, index, name, start, parent):
        self.spans[index] = Span(name, start, self.clock(), parent)
        self._stack.pop()

    def end_op(self, seconds):
        """Close the accounting of one CLI op: pencils are per op."""
        self.op_seconds.append(seconds)
        self.counters["eigen.distinct_pencils"] += len(self.pencils)
        self.pencils.clear()


@contextmanager
def instrument(tracer: Tracer):
    """Install the tracer's wrappers on every eigenmin module, then restore."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "eigenmin" or name.startswith("eigenmin."))]
    patched = []
    try:
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules["eigenmin." + module_name], fn_name)
            name = "%s.%s" % (module_name, fn_name)
            wrapper = tracer.wrap(name, original, OBSERVERS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def total_times(spans) -> dict:
    """Per span name, the summed duration of its outermost spans."""
    out = defaultdict(float)
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            out[span.name] += span.end - span.start
    return out


def time_metrics(spans) -> dict:
    """Every SELF_TIME and TOTAL_TIME metric, in seconds (0 for a layer not called)."""
    own = defaultdict(float)
    for span, seconds in zip(spans, self_times(spans)):
        own[span.name] += seconds
    total = total_times(spans)
    out = {metric: own[name] for metric, name in SELF_TIME.items()}
    out.update({metric: total[name] for metric, name in TOTAL_TIME.items()})
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Time and counter metrics of a traced pass, as plain numbers."""
    out = time_metrics(tracer.spans)
    counters = tracer.counters
    for metric in COUNTERS:
        out[metric] = counters[metric]
    pencils = counters["eigen.distinct_pencils"]
    out["eigen.solves_per_level"] = (counters["eigen.solve_lowest_calls"] / pencils
                                     if pencils else 0.0)
    return out
