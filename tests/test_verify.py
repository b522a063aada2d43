"""Tests for the verification harness: checks, tables, reports."""

import csv
import dataclasses
import io
import math
import os

import numpy as np
import pytest

from eigenmin import _fork, canonical, cli, eigen, trial, verify
from eigenmin.mesh import MeshError
from eigenmin.verify import (
    CLAIMS,
    DEFAULT_BETAS,
    DEFAULT_RESOLUTIONS,
    REPORT_VERSION,
    make_check,
    observed_order,
    render_report,
    report_csv,
    run_all,
)

TORUS = canonical.clifford_torus()
SPHERE = canonical.equatorial_sphere(2)


def test_make_check_mode_invariants():
    # passed must be exactly the stated predicate for every mode.
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = float(rng.normal(scale=5.0))
        e = float(rng.normal(scale=5.0))
        tol = float(abs(rng.normal(scale=0.5)))
        rel = make_check("C1-lambda1", "d", m, e, tol, mode="relative")
        assert rel.passed == (abs(m - e) <= tol * max(abs(e), 1.0))
        ab = make_check("C1-lambda1", "d", m, e, tol, mode="absolute")
        assert ab.passed == (abs(m - e) <= tol)
        lb = make_check("C8-bound", "d", m, e, tol, mode="lower_bound")
        assert lb.passed == (m >= e - tol * max(abs(e), 1.0))
        info = make_check("C2-lambda1", "d", m, e, tol, mode="info")
        assert info.passed


def test_make_check_rejects_unknown_mode_and_id():
    with pytest.raises(ValueError):
        make_check("C1-lambda1", "d", 1.0, 1.0, 0.1, mode="upper_bound")
    with pytest.raises(KeyError):
        make_check("C99-nope", "d", 1.0, 1.0, 0.1)


def test_replaced_check_reads_its_ids_claim():
    check = make_check("C1-lambda1", "d", 2.0, 2.0, 0.1)
    assert check.claim == CLAIMS["C1-lambda1"]
    assert dataclasses.replace(check, id="C2-lambda1").claim == CLAIMS["C2-lambda1"]


def test_observed_order():
    widths = [0.4, 0.2, 0.1]
    errors = [1.6e-2, 4.0e-3, 1.0e-3]
    assert observed_order(errors, widths) == pytest.approx(2.0, abs=1e-12)
    assert observed_order([1e-15, 1e-16], [0.2, 0.1]) == float("inf")
    # One exact level: the finer one gives inf, the coarser one 0.
    assert observed_order([1e-3, 0.0], [0.2, 0.1]) == float("inf")
    assert observed_order([0.0, 1e-3], [0.2, 0.1]) == 0.0
    with pytest.raises(ValueError):
        observed_order([1.0], [0.1])
    with pytest.raises(ValueError, match="^errors and widths must have matching lengths$"):
        observed_order([1.0, 0.5, 0.25], [0.2, 0.1])


# The paper's closed-form values, written out here so that what verify
# derives from canonical is checked against the paper independently.
PAPER = {
    "clifford": dict(cluster=4, level2=None, index=5, willmore=2.0 * math.pi ** 2,
                     euler=0, base_point=(0.0, 0.0), equality=False),
    "sphere": dict(cluster=3, level2=6.0, index=1, willmore=4.0 * math.pi,
                   euler=2, base_point=(1.0, 0.0, 0.0, 0.0), equality=True),
}


@pytest.mark.parametrize("surface", [TORUS, SPHERE], ids=["torus", "sphere"])
def test_canonical_gives_the_paper_values(surface, torus_report, sphere_report):
    paper = PAPER[surface.kind]
    exact = canonical.exact_spectrum(surface, 6)
    potential = surface.intrinsic_dim + canonical.second_fundamental_norm_sq(surface)
    assert exact[1] == (2.0, paper["cluster"])
    if paper["level2"] is not None:
        assert exact[2][0] == paper["level2"]
    assert sum(m for lam, m in exact if lam < potential) == paper["index"]
    assert canonical.exact_area(surface) == paper["willmore"]
    assert surface.euler_characteristic == paper["euler"]
    assert surface.base_point == paper["base_point"]
    assert (canonical.second_fundamental_norm_sq(surface) == 0.0) == paper["equality"]
    # The report expects these values, and its checks pass.
    report = (torus_report if surface is TORUS else sphere_report)[0]
    checks = {c.id: c for c in report.checks}
    prefix = "C1" if surface is TORUS else "C2"
    assert checks[prefix + "-cluster"].expected == paper["cluster"]
    if paper["level2"] is not None:
        assert checks["C2-level2"].description.endswith(
            "exact level %g" % paper["level2"])
    assert checks["C9-index"].expected == paper["index"]
    assert checks["C6-willmore"].expected == paper["willmore"]
    assert checks["euler"].expected == paper["euler"]
    assert report.overall_pass


def test_run_all_requires_two_resolutions():
    with pytest.raises(ValueError):
        run_all(TORUS, resolutions=[16])


@pytest.mark.parametrize("surface, resolutions", [
    (TORUS, [16, 16]), (TORUS, [32, 16]), (SPHERE, [3, 3]), (SPHERE, [3, 2]),
])
def test_run_all_rejects_levels_out_of_order(surface, resolutions, monkeypatch):
    # A repeated or coarser "finest" level would yield nan orders and
    # spurious failures; the error comes before any level is built.
    def no_level(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(verify, "generate", no_level)
    with pytest.raises(ValueError, match="^resolutions must be strictly ascending$"):
        run_all(surface, resolutions=resolutions)


@pytest.mark.parametrize("resolutions", [[8, 12.7], [8.0, 12], ["8", "12"]])
def test_run_all_rejects_levels_that_are_not_integers(resolutions, monkeypatch):
    # int() would truncate 12.7 to 12 and report "resolutions: 8 12".
    def no_level(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(verify, "generate", no_level)
    with pytest.raises(ValueError, match="^resolutions must be integers$"):
        run_all(TORUS, resolutions=resolutions)


@pytest.mark.parametrize("surface, resolutions, message", [
    (TORUS, [8, 512], "resolution must be at most 256"),
    (SPHERE, [1, 8], "subdivisions must be at most 7"),
])
def test_run_all_rejects_a_level_beyond_the_budget(surface, resolutions, message,
                                                   monkeypatch):
    # Every level is meshed before the first one is solved, so a too-fine
    # last level fails without an eigensolve.
    def no_solve(*args, **kwargs):
        raise AssertionError("a level was solved")

    monkeypatch.setattr(verify, "solve_lowest", no_solve)
    with pytest.raises(MeshError, match="^%s, the finest" % message):
        run_all(surface, resolutions=resolutions)


def test_run_all_torus_defaults(torus_report):
    report, _elapsed = torus_report
    assert report.surface == "clifford"
    assert report.resolutions == DEFAULT_RESOLUTIONS["clifford"]
    assert report.betas == DEFAULT_BETAS
    assert report.overall_pass
    assert all(c.passed for c in report.checks)
    ids = [c.id for c in report.checks]
    assert len(ids) == len(set(ids))
    assert "C1-lambda1" in ids and "C9-index" in ids and "C10-eigensum" in ids
    # Every check id is a registered claim.
    assert set(ids) <= set(CLAIMS)


def test_run_all_sphere_defaults(sphere_report):
    report, _elapsed = sphere_report
    assert report.surface == "sphere"
    assert report.overall_pass
    ids = {c.id for c in report.checks}
    assert "C2-lambda1" in ids and "C2-level2" in ids
    assert "C1-lambda1" not in ids


def test_reports_cover_every_claim(torus_report, sphere_report):
    torus_ids = {c.id for c in torus_report[0].checks}
    sphere_ids = {c.id for c in sphere_report[0].checks}
    assert torus_ids | sphere_ids == set(CLAIMS)


def test_report_check_order(torus_report, sphere_report):
    # The check order is part of the byte-stable report format.
    shared = ["C3-residual", "C3-trend", "C4-mean-zero", "C5-limit",
              "C5-sup-bound", "C6-willmore", "C8-bound", "area", "euler",
              "C9-index", "C10-eigensum", "C11-identity", "C11-order"]
    assert [c.id for c in torus_report[0].checks] == [
        "C1-lambda1", "C1-cluster", "C1-order", *shared]
    assert [c.id for c in sphere_report[0].checks] == [
        "C2-lambda1", "C2-cluster", "C2-level2", "C2-order", *shared]


def test_every_row_can_fail(torus_report, sphere_report):
    # A row that reads inf, or is recorded as info, passes on any input and
    # is no evidence.  The one info row is the sphere's C10-eigensum: the
    # bound is stated for genus >= 1, and the row says so.
    for report, _ in (torus_report, sphere_report):
        for c in report.checks:
            assert math.isfinite(c.measured), c.id
    info = [(report[0].surface, c.id) for report in (torus_report, sphere_report)
            for c in report[0].checks if c.mode == "info"]
    assert info == [("sphere", "C10-eigensum")]
    eigensum = next(c for c in sphere_report[0].checks if c.id == "C10-eigensum")
    assert "scoped to genus >= 1" in eigensum.description


def test_wall_times_cover_checks(torus_report):
    report, _ = torus_report
    assert list(report.wall_times) == ["levels", *verify._CHECK_GROUPS]
    assert all(t >= 0.0 for t in report.wall_times.values())


def test_replaced_report_reads_its_checks_verdict(torus_report):
    report, _ = torus_report
    assert report.overall_pass
    checks = [*report.checks[:-1], dataclasses.replace(report.checks[-1], passed=False)]
    assert not dataclasses.replace(report, checks=checks).overall_pass


def _inline_level(surface, resolution):
    """One level built here, outside run_all."""
    mesh = verify.generate(surface, resolution)
    return verify._Level(mesh, verify.assemble(mesh))


def _inline_run(surface, levels):
    """A _Run over prebuilt levels, with the two finest levels' spectra and
    the finest level's index count taken here at the default solver
    tolerance, each spectrum solved for the surface as run_all solves it."""
    spectra = [eigen.solve_lowest(lv.ops, 6, surface=surface) for lv in levels[-2:]]
    count = eigen.morse_index(levels[-1].ops, verify._index_shift(surface, 1e-8))
    return verify._Run(surface, levels, spectra, list(DEFAULT_BETAS), 1.0, count)


def _fine_run(surface, resolution, area=None):
    """An _Run over one level, its vertices scaled so that the mesh area is
    ``area`` (None keeps it); mesh_stats does not ask them to lie on the
    sphere."""
    level = _inline_level(surface, resolution)
    if area is not None:
        mesh = level.mesh
        scale = math.sqrt(area / level.stats.total_area)
        level = verify._Level(dataclasses.replace(mesh, vertices=scale * mesh.vertices),
                              level.ops)
    return _inline_run(surface, (level,))


def test_conjecture_check_torus():
    run = _fine_run(TORUS, 64)
    (chk,) = verify._eigensum_checks(run)
    assert chk.mode == "relative"
    assert chk.passed
    assert chk.expected == pytest.approx(
        4.0 * math.pi**2 / run.fine.stats.total_area, rel=1e-12)
    assert chk.measured == pytest.approx(2.0032, rel=1e-3)


def test_conjecture_check_sphere_is_informational():
    (chk,) = verify._eigensum_checks(_fine_run(SPHERE, 4))
    assert chk.mode == "info"
    assert chk.passed
    assert "informational" in chk.description


def _volume_bound(surface, resolution, area=None):
    return verify._volume_checks(_fine_run(surface, resolution, area))[0]


def test_volume_bound_check_patterns():
    chk = _volume_bound(SPHERE, 4)
    assert chk.id == "C8-bound"
    assert chk.passed  # bound holds with equality, as it should
    chk_t = _volume_bound(TORUS, 64)
    assert chk_t.passed  # bound holds strictly
    assert "strict" in chk_t.description
    # Equality on the torus would contradict the rigidity statement.
    fake = _volume_bound(TORUS, 64, 4.0 * math.pi)
    assert fake.measured == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert not fake.passed
    # A sphere area far above the bound breaks the expected equality.
    fake2 = _volume_bound(SPHERE, 4, 4.0 * math.pi * 1.1)
    assert not fake2.passed
    # Violating the bound outright fails too.
    fake3 = _volume_bound(SPHERE, 4, 0.9 * 4.0 * math.pi)
    assert not fake3.passed


def test_check_groups_run_alone_on_prebuilt_levels():
    # Each group needs only the prebuilt levels, so calling the groups
    # last to first still gives the report's checks.
    resolutions = [1, 2, 3]
    report = run_all(SPHERE, resolutions=resolutions)
    run = _inline_run(SPHERE, tuple(_inline_level(SPHERE, r) for r in resolutions))
    checks = []
    for group in reversed(verify._CHECK_GROUPS.values()):
        checks = group(run) + checks
    assert checks == report.checks


def test_replaced_level_reads_its_meshs_stats_and_coordinates():
    level = _inline_level(TORUS, 16)
    assert level.stats == verify.mesh_stats(level.mesh)
    assert len(level.coords) == 4
    sphere = verify.generate(SPHERE, 2)
    replaced = dataclasses.replace(level, mesh=sphere, ops=verify.assemble(sphere))
    assert replaced.stats == verify.mesh_stats(sphere)
    # x_4 vanishes on the sphere, so its column is left out.
    assert len(replaced.coords) == 3
    for i, column in enumerate(replaced.coords):
        np.testing.assert_array_equal(column, sphere.vertices[:, i])


# The stiffness is scaled to move the nth deflated eigenvalue to ``value``
# (None keeps it): torus 16's level-4 cluster starts at 4.104136 (n = 4),
# and sphere 2's lambda_1 cluster is 2.046255 (n = 2).  The index is counted
# below hi = potential - 1e-7, so a value in the band [potential - 0.1, hi)
# just below it is counted like any other below hi, and one in [hi,
# potential) is not.
@pytest.mark.parametrize("surface, resolution, nth, value, measured, expected", [
    (TORUS, 16, 4, None, 5.0, 5.0),
    (TORUS, 16, 4, 3.95, 7.0, 5.0),
    (TORUS, 16, 4, 3.85, 7.0, 5.0),
    (TORUS, 16, 4, 4.0 - 5e-8, 5.0, 5.0),
    (SPHERE, 2, 2, 1.95, 4.0, 1.0),
], ids=["unscaled", "banded", "below-band", "above-band", "sphere-banded"])
def test_index_check_margin_band(surface, resolution, nth, value, measured,
                                 expected):
    level = _inline_level(surface, resolution)
    if value is not None:
        ops = level.ops
        scale = value / eigen.solve_lowest(ops, nth + 1).eigenvalues[nth]
        level = dataclasses.replace(level, ops=dataclasses.replace(
            ops, stiffness=ops.stiffness * scale))
    index = verify._index_checks(_inline_run(surface, (level,)))[0]
    assert (index.id, index.measured, index.expected) == (
        "C9-index", measured, expected)
    assert index.description == (
        "eigenvalue count below the stability potential n + |A|^2 = %g"
        % (4 if surface is TORUS else 2))
    assert index.passed == (measured == expected)


def test_zero_tolerance_fails_inexact_checks():
    report = run_all(TORUS, resolutions=[8, 12, 16], tol=0.0)
    assert not report.overall_pass
    failed = {c.id for c in report.checks if not c.passed}
    assert "C1-lambda1" in failed
    # Info rows never fail, exact topology still passes.
    euler = next(c for c in report.checks if c.id == "euler")
    assert euler.passed


def test_sup_bound_violation_is_a_failed_check(monkeypatch, capsys):
    # Move u_beta 1e-9 further from x_1 wherever x_1 != 0, so sup|u_beta - x_1|
    # exceeds the exact bound max|x_1|/beta by 1e-9.
    exact = trial._truncation

    def off_by_1e9(beta, d, x):
        phi, u, _ = exact(beta, d, x)
        u = u - 1e-9 * np.sign(x)
        return phi, u, np.abs(u - x)

    monkeypatch.setattr(trial, "_truncation", off_by_1e9)
    report = run_all(TORUS, resolutions=[8, 12])
    sup = next(c for c in report.checks if c.id == "C5-sup-bound")
    assert not sup.passed
    assert sup.measured == pytest.approx(1e-9, rel=1e-6)
    rc = cli.main(["verify", "--surface", "clifford", "--resolutions", "8,12"])
    assert rc == cli.EXIT_VERIFY_FAIL
    out, err = capsys.readouterr()
    assert any(line.startswith("FAIL C5-sup-bound") for line in out.splitlines())
    assert "Traceback" not in err


def test_sup_bound_margin_scales_with_a_bound_above_one():
    # At beta = 1e-50 the bound max|x_1|/beta is about 7e49, and sup|u_beta - x_1|
    # may exceed it by a rounding unit of 1e34; the margin is relative there.
    report = run_all(TORUS, resolutions=[8, 12], betas=[1e-50, 1.0])
    sup = next(c for c in report.checks if c.id == "C5-sup-bound")
    assert sup.passed
    assert sup.measured <= 1e-15
    assert ", divided by the bound where it exceeds 1 (" in sup.description


def test_report_rendering_deterministic(torus_report):
    report, _ = torus_report
    text = render_report(report)
    assert text.startswith(REPORT_VERSION)
    rerun = run_all(TORUS)
    assert render_report(rerun) == text
    assert report_csv(rerun) == report_csv(report)


def test_render_report_structure(sphere_report):
    report, _ = sphere_report
    text = render_report(report)
    lines = text.splitlines()
    assert lines[0] == REPORT_VERSION
    assert any(line.startswith("surface: sphere") for line in lines)
    assert any(line.startswith("overall: ") for line in lines)
    # One block per check.
    assert sum(1 for line in lines if line.startswith("check: ")) == len(report.checks)
    assert sum(1 for line in lines if line.startswith("passed: ")) == len(report.checks)


def test_report_csv_parses(sphere_report):
    report, _ = sphere_report
    rows = list(csv.reader(io.StringIO(report_csv(report))))
    assert rows[0] == [
        "id", "mode", "measured", "expected", "tolerance", "passed",
        "description", "claim",
    ]
    assert len(rows) == len(report.checks) + 1
    for row in rows[1:]:
        float(row[2])
        float(row[3])
        float(row[4])
        assert row[5] in ("true", "false")


def test_run_all_sphere_small_structure():
    # A fast sphere run at coarse subdivisions keeps the same check skeleton
    # even though some tolerance-bound checks may fail there.
    report = run_all(SPHERE, resolutions=[1, 2, 3])
    ids = [c.id for c in report.checks]
    assert ids[0] == "C2-lambda1"
    assert "C5-limit" in ids and "C8-bound" in ids and "C11-order" in ids
    text = render_report(report)
    assert text.startswith(REPORT_VERSION)


@pytest.fixture
def fork_cpus(monkeypatch):
    """Set the CPU count that decides whether run_all splits its solves
    across a forked child (2) or runs them in this process (1), with a BLAS
    width of 1 as the split needs."""
    def set_cpus(cpus):
        if cpus > 1 and not hasattr(os, "fork"):
            pytest.skip("the platform cannot fork")
        monkeypatch.setattr(_fork, "cpus", lambda: cpus)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    return set_cpus


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_all_solves_each_level_once(monkeypatch, tmp_path, fork_cpus):
    # The spectra of the two finest levels serve C1/C2 and C10, and no check
    # reads one of a coarser level, so none is solved; the Morse index
    # counts pivots once, on the finest operators, instead of solving again.
    # The calls are appended to a file, so those of the forked child count too;
    # the child is a copy of this process, so ids name the same operators.
    fork_cpus(2)
    log = tmp_path / "calls"
    real_solve, real_index = eigen.solve_lowest, eigen.morse_index

    def logged(name, real):
        def call(ops, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write("%s %d %d\n" % (name, ops.dim, id(ops)))
            return real(ops, *args, **kwargs)
        return call

    for module in (verify, eigen):
        monkeypatch.setattr(module, "solve_lowest", logged("solve", real_solve))
        monkeypatch.setattr(module, "morse_index", logged("index", real_index))
    run_all(TORUS, resolutions=[8, 16, 32])
    calls = [line.split() for line in log.read_text().splitlines()]
    solves = {int(dim): ops for name, dim, ops in calls if name == "solve"}
    assert sorted(int(dim) for name, dim, _ in calls if name == "solve") == [256, 1024]
    assert [ops for name, _, ops in calls if name == "index"] == [solves[1024]]


@pytest.mark.parametrize("surface", [TORUS, SPHERE], ids=["torus", "sphere"])
def test_split_and_inline_reports_are_byte_equal(surface, fork_cpus, forks):
    reports = []
    for cpus in (2, 1):
        fork_cpus(cpus)
        reports.append(run_all(surface))
    assert forks == [os.getpid()]
    split, inline = reports
    assert render_report(split) == render_report(inline)
    assert report_csv(split) == report_csv(inline)
    _no_child_left()


def test_split_and_inline_solves_are_bit_identical(fork_cpus):
    # The index shift, just below the torus's potential 4, counts the
    # constant and the lambda_1 = 2 cluster's four copies.
    middle, fine = (verify.assemble(verify.generate(TORUS, r)) for r in (16, 32))
    results = []
    for cpus in (2, 1):
        fork_cpus(cpus)
        results.append(verify._solve(TORUS, middle, fine, 1e-8, 0))
    (split, split_count), (inline, inline_count) = results
    assert split_count == inline_count == 5
    assert len(split) == len(inline) == 2
    for a, b in zip(split, inline):
        for field in ("eigenvalues", "eigenvectors", "residuals"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert a.iterations == b.iterations


@pytest.mark.parametrize("cpus, env, expected", [
    (2, {}, 0), (2, {"OPENBLAS_NUM_THREADS": "1"}, 1), (1, {"OMP_NUM_THREADS": "1"}, 0),
    (4, {"OMP_NUM_THREADS": "2"}, 1), (4, {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 0),
], ids=["width-unset", "width-1", "one-cpu", "omp-2-of-4", "openblas-first"])
def test_split_needs_cpus_for_two_blas_pools(cpus, env, expected, forks, monkeypatch):
    if cpus > 1 and not hasattr(os, "fork"):
        pytest.skip("the platform cannot fork")
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(_fork, "cpus", lambda: cpus)
    run_all(TORUS, resolutions=[8, 12])
    assert len(forks) == expected
    _no_child_left()


def _fail_solve_at(monkeypatch, dim, exc):
    real = eigen.solve_lowest

    def failing(ops, *args, **kwargs):
        if ops.dim == dim:
            raise exc
        return real(ops, *args, **kwargs)

    monkeypatch.setattr(verify, "solve_lowest", failing)


def test_child_nonconvergence_exits_3_like_inline(fork_cpus, monkeypatch, capsys):
    # Torus 16 is solved in the child on the split path.
    _fail_solve_at(monkeypatch, 256, eigen.NonConvergence("stalled at 256"))
    argv = ["verify", "--surface", "clifford", "--resolutions", "8,16,32"]
    errors = []
    for cpus in (2, 1):
        fork_cpus(cpus)
        assert cli.main(argv) == cli.EXIT_SOLVER
        errors.append(capsys.readouterr().err)
        _no_child_left()
    assert errors == ["error: solver did not converge: stalled at 256\n"] * 2
    fork_cpus(2)
    with pytest.raises(eigen.NonConvergence, match="^stalled at 256$"):
        run_all(TORUS, resolutions=[8, 16, 32])
    _no_child_left()


def test_coarsest_level_is_never_solved(fork_cpus, monkeypatch, torus_report):
    # No check reads the coarsest level's spectrum, so a solve that would
    # not converge there is never reached, split or in one process.
    _fail_solve_at(monkeypatch, 256, eigen.NonConvergence("stalled at 256"))
    for cpus in (2, 1):
        fork_cpus(cpus)
        assert render_report(run_all(TORUS)) == render_report(torus_report[0])
        _no_child_left()


def test_child_that_dies_is_a_solver_error(fork_cpus, monkeypatch):
    # A child that ends without sending a result, as under the OOM killer,
    # is reported with its exit code.
    fork_cpus(2)
    monkeypatch.setattr(verify, "morse_index", lambda ops, shift: os._exit(7))
    with pytest.raises(eigen.SolverError, match=r"sent no result \(exit code 7\)$"):
        run_all(TORUS, resolutions=[8, 16, 32])
    _no_child_left()


def test_child_that_dies_exits_3_without_traceback(fork_cpus, monkeypatch, capsys):
    fork_cpus(2)
    monkeypatch.setattr(verify, "morse_index", lambda ops, shift: os._exit(7))
    argv = ["verify", "--surface", "clifford", "--resolutions", "8,16,32"]
    assert cli.main(argv) == cli.EXIT_SOLVER
    assert capsys.readouterr().err == (
        "error: solver failed: the forked process sent no result (exit code 7)\n")
    _no_child_left()


def test_solver_error_exits_3_on_both_paths(fork_cpus, monkeypatch, capsys):
    def off_diagonal(ops, shift):
        raise eigen.SolverError("the factorization of S - c M left the diagonal")

    monkeypatch.setattr(verify, "morse_index", off_diagonal)
    argv = ["verify", "--surface", "clifford", "--resolutions", "8,16,32"]
    for cpus in (2, 1):
        fork_cpus(cpus)
        assert cli.main(argv) == cli.EXIT_SOLVER
        assert capsys.readouterr().err == (
            "error: solver failed: the factorization of S - c M left the diagonal\n")
        _no_child_left()


def test_parent_solve_failure_reaps_the_child(fork_cpus, monkeypatch):
    # Torus 32, the finest level, is solved in this process.
    fork_cpus(2)
    _fail_solve_at(monkeypatch, 1024, RuntimeError("finest solve failed"))
    with pytest.raises(RuntimeError, match="^finest solve failed$"):
        run_all(TORUS, resolutions=[8, 16, 32])
    _no_child_left()
