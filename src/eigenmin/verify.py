"""Aggregate verification: every quantitative claim as a measured check.

run_all produces a VerificationReport whose checks cover the eigenvalue
claims (lambda_1 = n with the right multiplicity), the Takahashi identity,
coordinate orthogonality, the beta-sweep Rayleigh limit, Willmore and
volume values, the integrated gradient identity, the Morse index and the
two-eigenvalue average bound, plus observed convergence orders.  Reports
serialize deterministically: two runs with the same inputs and seed
produce byte-identical files.

Nearly all of the time goes to sparse factorizations that do not depend
on each other: one eigensolve on each of the two finest levels, the only
spectra a check reads, and one inertia count on the finest.  run_all
meshes and assembles every level, then, where the CPUs hold two BLAS pools
(any two CPUs at the package's one-thread default), solves the finest
level while one forked child counts its inertia and solves the next
coarser level (``_solve``).  Either way every check reads the same bits.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _fork, canonical
from .canonical import CanonicalSurface
from .eigen import (
    SolverError,
    _check_seed,
    _check_tol,
    morse_index,
    solve_lowest,
)
from .fem import (
    FemOperators,
    assemble,
    takahashi_residual,
    willmore_energy,
)
from .mesh import MeshStats, TriMesh, generate, mesh_stats
from .trial import (
    _check_betas,
    orthogonality_defect,
    sweep_beta,
)

__all__ = [
    "Check",
    "VerificationReport",
    "CLAIMS",
    "run_all",
    "render_report",
    "report_csv",
]

REPORT_VERSION = "EIGENMIN-REPORT 2"

DEFAULT_RESOLUTIONS = {"clifford": [16, 32, 64], "sphere": [2, 3, 4]}
DEFAULT_BETAS = [float(2 ** j) for j in range(11)]

# Claim text per check id.  Serves as the auditable coverage list: every
# check in a report reads one of these, and the tests assert the two
# reports together exercise every entry.
CLAIMS = {
    "C1-lambda1": "first nonzero Laplace eigenvalue of the Clifford torus equals 2",
    "C1-cluster": "the eigenvalue 2 of the Clifford torus has multiplicity 4",
    "C1-order": "discrete lambda_1 converges at second order on the torus",
    "C2-lambda1": "first nonzero Laplace eigenvalue of the equatorial 2-sphere equals 2",
    "C2-cluster": "the eigenvalue 2 of the 2-sphere has multiplicity 3",
    "C2-level2": "the second sphere eigenvalue level is 6 with multiplicity starting at index 4",
    "C2-order": "discrete lambda_1 converges at second order on the sphere",
    "C3-residual": "ambient coordinates satisfy Laplace(x_i) = -n x_i on a minimal surface",
    "C3-trend": "the discrete residual of Laplace(x_i) = -n x_i shrinks under refinement",
    "C4-mean-zero": "ambient coordinates integrate to zero over the surface",
    "C5-limit": "the Rayleigh quotient of u_beta tends to n as beta grows",
    "C5-sup-bound": "the truncation error obeys |u_beta - x_i| <= max|x_i|/beta",
    "C6-willmore": "the Willmore energy equals 2 pi^2 on the Clifford torus and 4 pi on the sphere",
    "C8-bound": "the surface volume is at least 4 pi^(n/2) / Gamma(n/2 + 1), with equality exactly for the equatorial sphere",
    "C9-index": "the Morse index is 5 for the Clifford torus and 1 for the equatorial sphere",
    "C10-eigensum": "the average of the first two nonzero eigenvalues is at least 4 pi^2 / area, with equality for the Clifford torus",
    "C11-identity": "integration by parts gives integral |grad x_i|^2 = n integral x_i^2",
    "C11-order": "the integrated identity gap shrinks at second order",
    "area": "the mesh area converges to the closed-form surface area",
    "euler": "the mesh has the Euler characteristic of its surface",
}


@dataclass(frozen=True)
class Check:
    """One measured claim with its pass criterion.

    mode is one of 'relative' (|m - e| <= tol * max(|e|, 1)), 'absolute'
    (|m - e| <= tol), 'lower_bound' (m >= e - tol * max(|e|, 1)) or 'info'
    (always passes; recorded for the reader).  The claim is read from
    ``CLAIMS`` by id.
    """

    id: str
    description: str
    mode: str
    measured: float
    expected: float
    tolerance: float
    passed: bool

    @property
    def claim(self) -> str:
        return CLAIMS[self.id]


def make_check(check_id, description, measured, expected, tolerance,
               mode="relative", passed=None) -> Check:
    if check_id not in CLAIMS:
        raise KeyError(check_id)
    measured = float(measured)
    expected = float(expected)
    tolerance = float(tolerance)
    if passed is None:
        if mode == "relative":
            passed = abs(measured - expected) <= tolerance * max(abs(expected), 1.0)
        elif mode == "absolute":
            passed = abs(measured - expected) <= tolerance
        elif mode == "lower_bound":
            passed = measured >= expected - tolerance * max(abs(expected), 1.0)
        elif mode == "info":
            passed = True
        else:
            raise ValueError("unknown check mode %r" % mode)
    return Check(check_id, description, mode, measured, expected, tolerance,
                 bool(passed))


@dataclass
class VerificationReport:
    surface: str
    resolutions: list
    betas: list
    tolerance_scale: float
    solver_tolerance: float
    seed: int
    checks: list
    wall_times: dict = field(default_factory=dict)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class _Level:
    """One resolution: its mesh and operators.  Its stats and coordinate
    columns are read from the mesh at first use, so a replaced mesh brings
    its own."""

    mesh: TriMesh
    ops: FemOperators

    @cached_property
    def stats(self) -> MeshStats:
        return mesh_stats(self.mesh)

    @cached_property
    def coords(self) -> tuple:
        """The coordinate functions that are not identically zero."""
        vertices = self.mesh.vertices
        return tuple(vertices[:, i] for i in range(4)
                     if float(np.abs(vertices[:, i]).max()) > 1e-12)


def _potential(surface: CanonicalSurface) -> float:
    """The stability potential n + |A|^2 of the Jacobi operator."""
    return surface.intrinsic_dim + canonical.second_fundamental_norm_sq(surface)


def _index_shift(surface: CanonicalSurface, solver_tol: float) -> float:
    """The shift below the potential at which the Morse index is counted;
    ``_index_checks`` states the rule."""
    return _potential(surface) - 10.0 * solver_tol


def _blas_width(cpus: int) -> int:
    """Threads in the BLAS pool of each process: the first positive integer
    among the variables OpenBLAS reads at start-up, in its order, else one
    thread per CPU, its default."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


def _solve(surface, middle, fine, solver_tol, seed):
    """The lowest six deflated eigenpairs of the pencils ``middle`` and
    ``fine`` of ``surface``, and the number of eigenvalues of ``fine``
    below the index shift (``_index_shift``).

    The factorizations behind these do not depend on each other.  When the
    usable CPUs hold two BLAS pools, this process solves ``fine`` while one
    forked child (``_fork.child``) counts the inertia and then solves
    ``middle``.  Either way each result is the same call on the same
    matrices, so its bits are the same.
    """
    def solve(ops):
        return solve_lowest(ops, 6, tol=solver_tol, seed=seed, surface=surface)

    def count():
        return morse_index(fine, _index_shift(surface, solver_tol))

    # Idle BLAS threads spin before they sleep, so two pools that together
    # outnumber the CPUs slow both processes down.  On 2 vCPUs at a user-set
    # width of one thread per CPU, run_all on the torus and the sphere took
    # 0.67 s split against 0.39 s in one process; at width 1, 0.21 s.
    cpus = _fork.cpus()
    if cpus < 2 * _blas_width(cpus):
        return [solve(middle), solve(fine)], count()
    # The child inherits the modules loaded here.  Loaded in the child, they
    # would die with it, and every verify would import scipy again.
    import scipy.linalg  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    with _fork.child(lambda: (count(), solve(middle)), SolverError) as child:
        fine_spectrum = solve(fine)
        index_count, middle_spectrum = child()
    return [middle_spectrum, fine_spectrum], index_count


@dataclass(frozen=True)
class _Run:
    """What every check group reads: the surface, its levels from coarse
    to fine, the lowest deflated spectra of the two finest levels, the
    sweep betas, the tolerance scale and the finest level's eigenvalue
    count below the index shift."""

    surface: CanonicalSurface
    levels: tuple
    spectra: list
    betas: list
    tol: float
    index_count: int

    @property
    def n(self) -> int:
        return self.surface.intrinsic_dim

    @property
    def torus(self) -> bool:
        return self.surface.kind == "clifford"

    @property
    def fine(self) -> _Level:
        return self.levels[-1]

    @property
    def widths(self) -> list:
        return [lv.stats.max_edge for lv in self.levels]


def observed_order(errors, widths):
    """Log-ratio order from the two finest levels; inf when both are exact.

    ``widths`` are the matching mesh widths (max edge lengths), so the
    estimate does not assume exact halving between levels.
    """
    if len(errors) < 2 or len(widths) < 2:
        raise ValueError("order estimation needs at least two levels")
    if len(errors) != len(widths):
        raise ValueError("errors and widths must have matching lengths")
    e0, e1 = errors[-2], errors[-1]
    if e0 <= 1e-12 and e1 <= 1e-12:
        return float("inf")
    if e1 <= 0 or e0 <= 0:
        return float("inf") if e1 <= 1e-12 else 0.0
    return float(np.log(e0 / e1) / np.log(widths[-2] / widths[-1]))


def _eigen_checks(run: _Run) -> list:
    """lambda_1 = n, its cluster size, the sphere's level 6 and the order."""
    n, tol = run.n, run.tol
    prefix = "C1" if run.torus else "C2"
    eigenvalues = run.spectra[-1].eigenvalues
    exact = canonical.exact_spectrum(run.surface, 3)
    checks = [make_check(
        "%s-lambda1" % prefix,
        "discrete lambda_1 at the finest resolution against the exact value n = %d" % n,
        float(eigenvalues[0]), float(n), 0.01 * tol,
    ), make_check(
        "%s-cluster" % prefix,
        "number of discrete eigenvalues within 1%% of the first exact level",
        int(np.count_nonzero(np.abs(eigenvalues - n) <= 0.01 * n)),
        exact[1][1], 0.0, mode="absolute",
    )]
    if not run.torus:
        level2 = exact[2][0]
        checks.append(make_check(
            "C2-level2",
            "worst relative deviation of eigenvalues 4-6 from the exact level %g"
            % level2,
            float(np.max(np.abs(eigenvalues[3:6] / level2 - 1.0))), 0.0,
            0.01 * tol, mode="absolute",
        ))
    errs = [abs(float(sp.eigenvalues[0]) - n) for sp in run.spectra]
    checks.append(make_check(
        "%s-order" % prefix,
        "observed convergence order of the lambda_1 error (second order expected;"
        " faster also passes)",
        observed_order(errs, run.widths[-2:]), 2.0, 0.15 * tol, mode="lower_bound",
    ))
    return checks


def _takahashi_checks(run: _Run) -> list:
    worst = [
        max(takahashi_residual(lv.ops, vals, run.n) for vals in lv.coords)
        for lv in run.levels
    ]
    decreasing = all(a > b for a, b in zip(worst, worst[1:]))
    return [make_check(
        "C3-residual",
        "largest relative residual of S x_i = n M x_i over the coordinates"
        " at the finest resolution",
        worst[-1], 0.0, 0.05 * run.tol, mode="absolute",
    ), make_check(
        "C3-trend",
        "1 when the worst coordinate residual strictly decreases under"
        " refinement, else 0",
        1.0 if decreasing else 0.0, 1.0, 0.0, mode="absolute",
    )]


def _mean_zero_checks(run: _Run) -> list:
    fine = run.fine
    return [make_check(
        "C4-mean-zero",
        "largest Cauchy-Schwarz-normalized defect |<1, x_i>_M| over the"
        " coordinates",
        max(orthogonality_defect(fine.ops, vals) for vals in fine.coords),
        0.0, 1e-10 * run.tol, mode="absolute",
    )]


def _sweep_checks(run: _Run) -> list:
    mesh = run.fine.mesh
    records = sweep_beta(mesh, run.fine.ops, 1, run.surface.base_point, run.betas)
    sup_x = float(np.abs(mesh.vertices[:, 0]).max())
    # The bound's rounding grows with it, so the excess is measured in units
    # of max(1, bound): absolute while the bound is at most 1, as at beta >= 1.
    excess = max((r.sup_error - sup_x / r.beta) / max(1.0, sup_x / r.beta)
                 for r in records)
    relative = sup_x / run.betas[0] > 1.0
    return [make_check(
        "C5-limit",
        "projected Rayleigh quotient of u_beta at beta = %g against n" % run.betas[-1],
        records[-1].rayleigh_projected, float(run.n), 0.005 * run.tol,
    ), make_check(
        "C5-sup-bound",
        "largest excess of sup|u_beta - x_1| over the exact bound"
        " max|x_1|/beta" + (", divided by the bound where it exceeds 1"
                            if relative else "") + " (clipped at zero)",
        max(excess, 0.0), 0.0, 1e-12, mode="absolute",
    )]


def _willmore_checks(run: _Run) -> list:
    """Minimal surfaces have H = 0, so the exact energy is the area."""
    return [make_check(
        "C6-willmore",
        "Willmore energy integral (1 + H^2) at the finest resolution",
        willmore_energy(run.fine.mesh, run.fine.ops),
        canonical.exact_area(run.surface), 0.02 * run.tol,
    )]


def _volume_checks(run: _Run) -> list:
    """The volume bound, the area and Euler.

    The bound passes when it holds within tolerance and the equality
    pattern matches the surface: equality exactly for the totally geodesic
    sphere, |A|^2 = 0, strict inequality otherwise.
    """
    area = run.fine.stats.total_area
    tol = 0.01 * run.tol
    bound = canonical.volume_lower_bound(run.n)
    holds = area >= bound * (1.0 - tol)
    equal = abs(area - bound) <= tol * bound
    consistent = equal == (canonical.second_fundamental_norm_sq(run.surface) == 0.0)
    return [make_check(
        "C8-bound",
        "area %.6g vs lower bound %.6g (%s); equality is expected exactly for"
        " the equatorial sphere" % (area, bound, "attained" if equal else "strict"),
        area, bound, tol, mode="lower_bound", passed=holds and consistent,
    ), make_check(
        "area",
        "total mesh area at the finest resolution against the closed form",
        area, canonical.exact_area(run.surface), 0.01 * run.tol,
    ), make_check(
        "euler",
        "Euler characteristic of the finest mesh",
        float(run.fine.stats.euler_char),
        float(run.surface.euler_characteristic), 0.0, mode="absolute",
    )]


def _index_checks(run: _Run) -> list:
    """The Morse index, counted at hi = c - 10 solver_tol below the
    potential c.

    Discrete eigenvalues approach the exact ones from above, so one at or
    above hi counts as a nonnegative direction.  A discrete eigenvalue on
    the wrong side of hi changes the count and fails the check.
    """
    potential = _potential(run.surface)
    # The index counts the exact eigenvalues below the potential.
    target = float(sum(mult for lam, mult in canonical.exact_spectrum(run.surface, 6)
                       if lam < potential))
    return [make_check(
        "C9-index",
        "eigenvalue count below the stability potential n + |A|^2 = %g"
        % potential,
        float(run.index_count), target, 0.0, mode="absolute",
    )]


def _eigensum_checks(run: _Run) -> list:
    """The average of the first two nonzero eigenvalues against
    4 pi^2 / area.  The bound is stated for embedded minimal surfaces of
    genus at least one, so the torus gets an equality check and the
    sphere's value is recorded as informational."""
    measured = float(np.mean(run.spectra[-1].eigenvalues[:2]))
    bound = canonical.TWO_PI ** 2 / run.fine.stats.total_area
    if run.torus:
        return [make_check(
            "C10-eigensum",
            "(lambda_1 + lambda_2)/2 against 4 pi^2 / area; equality holds on the torus",
            measured, bound, 0.01 * run.tol,
        )]
    return [make_check(
        "C10-eigensum",
        "(lambda_1 + lambda_2)/2 = %.6g vs 4 pi^2 / area = %.6g; the bound is"
        " scoped to genus >= 1, so the sphere value is informational"
        % (measured, bound),
        measured, bound, 0.01 * run.tol, mode="info",
    )]


def _integrated_checks(run: _Run) -> list:
    gaps = []
    for lv in run.levels:
        worst = 0.0
        for vals in lv.coords:
            num = float(vals @ (lv.ops.stiffness @ vals))
            den = float(run.n * (vals @ (lv.ops.mass @ vals)))
            worst = max(worst, abs(num - den) / den)
        gaps.append(worst)
    return [make_check(
        "C11-identity",
        "largest relative gap in u' S u = n u' M u over the coordinates"
        " at the finest resolution",
        gaps[-1], 0.0, 0.01 * run.tol, mode="absolute",
    ), make_check(
        "C11-order",
        "observed order of the integrated identity gap (second order"
        " expected; faster also passes)",
        observed_order(gaps, run.widths), 2.0, 0.15 * run.tol, mode="lower_bound",
    )]


# The check groups in report order: the only statement of that order.
# Each group maps one _Run to its checks; the name labels its wall time.
_CHECK_GROUPS = {
    "eigenvalues": _eigen_checks,
    "takahashi": _takahashi_checks,
    "mean-zero": _mean_zero_checks,
    "sweep": _sweep_checks,
    "willmore": _willmore_checks,
    "volume": _volume_checks,
    "index": _index_checks,
    "eigensum": _eigensum_checks,
    "integrated": _integrated_checks,
}


def run_all(surface: CanonicalSurface, resolutions=None, betas=None,
            tol: float = 1.0, solver_tol: float = 1e-8,
            seed: int = 0) -> VerificationReport:
    """Run the full check set and return the report.

    ``tol`` scales every check tolerance and must be finite and
    non-negative (1.0 keeps the defaults; 0 makes every inexact check fail
    while leaving the report well-formed).
    ``solver_tol`` is the eigensolver residual certificate and ``seed``
    its start-vector seed.  Bad inputs raise ValueError before any level is
    built, and a level finer than the mesh generators allow raises
    MeshError before any level is solved.  Individual check failures are recorded; infrastructure failures
    (assembly errors, solver non-convergence) propagate, also those raised
    in the forked child.  ``wall_times`` holds the time spent building the
    levels (the two finest spectra and the index count included, the mesh
    stats not: they are made in the first check group that reads them),
    then the time of each check group.
    """
    if resolutions is None:
        resolutions = DEFAULT_RESOLUTIONS[surface.kind]
    try:
        resolutions = [operator.index(r) for r in resolutions]
    except TypeError:
        raise ValueError("resolutions must be integers") from None
    if len(resolutions) < 2:
        raise ValueError("need at least two resolutions")
    if any(r1 >= r2 for r1, r2 in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must be strictly ascending")
    betas = _check_betas(DEFAULT_BETAS if betas is None else betas)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and non-negative")
    _check_tol(solver_tol, "solver_tol")
    _check_seed(seed)

    clock = time.perf_counter
    start = clock()
    meshes = [generate(surface, r) for r in resolutions]
    opss = [assemble(m) for m in meshes]
    # The order checks read the two finest levels only, so no coarser level
    # is solved.
    spectra, index_count = _solve(surface, *opss[-2:], solver_tol, seed)
    wall = {"levels": clock() - start}
    run = _Run(surface, tuple(map(_Level, meshes, opss)), spectra, betas, tol,
               index_count)
    checks = []
    for name, group in _CHECK_GROUPS.items():
        start = clock()
        checks += group(run)
        wall[name] = clock() - start

    return VerificationReport(
        surface=surface.kind,
        resolutions=resolutions,
        betas=betas,
        tolerance_scale=tol,
        solver_tolerance=solver_tol,
        seed=seed,
        checks=checks,
        wall_times=wall,
    )


def _fmt(value) -> str:
    return repr(float(value))


def render_report(report: VerificationReport) -> str:
    """Versioned structured text, one block per check, byte-deterministic.

    Wall-clock times are intentionally not serialized; identical inputs
    must produce identical bytes.
    """
    out = io.StringIO()
    out.write(REPORT_VERSION + "\n")
    out.write("surface: %s\n" % report.surface)
    out.write("resolutions: %s\n" % " ".join(str(r) for r in report.resolutions))
    out.write("betas: %s\n" % " ".join("%g" % b for b in report.betas))
    out.write("tolerance-scale: %s\n" % _fmt(report.tolerance_scale))
    out.write("solver-tolerance: %s\n" % _fmt(report.solver_tolerance))
    out.write("seed: %d\n" % report.seed)
    out.write("checks: %d\n" % len(report.checks))
    out.write("overall: %s\n" % ("pass" if report.overall_pass else "fail"))
    for c in report.checks:
        out.write("\n")
        out.write("check: %s\n" % c.id)
        out.write("description: %s\n" % c.description)
        out.write("claim: %s\n" % c.claim)
        out.write("mode: %s\n" % c.mode)
        out.write("measured: %s\n" % _fmt(c.measured))
        out.write("expected: %s\n" % _fmt(c.expected))
        out.write("tolerance: %s\n" % _fmt(c.tolerance))
        out.write("passed: %s\n" % ("true" if c.passed else "false"))
    return out.getvalue()


def report_csv(report: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "mode", "measured", "expected", "tolerance",
                     "passed", "description", "claim"])
    for c in report.checks:
        writer.writerow([c.id, c.mode, _fmt(c.measured), _fmt(c.expected),
                         _fmt(c.tolerance), "true" if c.passed else "false",
                         c.description, c.claim])
    return buf.getvalue()

