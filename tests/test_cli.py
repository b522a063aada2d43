"""End-to-end tests of the command line interface via main(argv)."""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from eigenmin import _fork, _text, canonical, cli, eigen, fem, mesh, trial, verify
from eigenmin.cli import EXIT_OK, EXIT_SOLVER, EXIT_USAGE, EXIT_VERIFY_FAIL, main


def test_mesh_command_writes_file(tmp_path, capsys):
    out = tmp_path / "t.smesh"
    rc = main(["mesh", "--surface", "clifford", "--resolution", "8", "--out", str(out)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "vertices: 64" in text
    assert "faces: 128" in text
    assert "euler: 0" in text
    loaded = mesh.read_mesh(out)
    assert loaded.vertex_count == 64


def test_mesh_command_stats_only(capsys):
    rc = main(["mesh", "--surface", "sphere", "--subdiv", "1"])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "vertices: 42" in text
    assert "euler: 2" in text


def test_mesh_rejects_wrong_granularity_flag(capsys):
    rc = main(["mesh", "--surface", "clifford", "--subdiv", "3"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--subdiv" in err


def test_mesh_rejects_bad_resolution(capsys):
    rc = main(["mesh", "--surface", "clifford", "--resolution", "2"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--resolution" in err


def test_spectrum_command(capsys):
    rc = main(["spectrum", "--surface", "clifford", "--resolution", "12", "--k", "4"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("EIGENMIN-SPECTRUM 1")
    assert "k: 4" in out
    assert "deflated: true" in out
    data_lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(data_lines) == 4
    lam0 = float(data_lines[0].split()[0])
    assert lam0 == pytest.approx(2.0, rel=0.1)


_TORUS32 = (["--surface", "clifford", "--resolution", "32"], lambda: mesh.generate_torus(32))
_SPHERE3 = (["--surface", "sphere", "--subdiv", "3"], lambda: mesh.generate_sphere(3))


@pytest.mark.parametrize("flags, generated, deflate", [
    (*_TORUS32, True), (*_SPHERE3, True), (*_TORUS32, False), (*_SPHERE3, False),
], ids=["torus", "sphere", "torus-undeflated", "sphere-undeflated"])
def test_spectrum_values_do_not_depend_on_the_shift(flags, generated, deflate, capsys):
    # spectrum solves a deflated k = 6 about 3, between the exact levels,
    # and every other solve about -1: each prints the values of the solve
    # about -1, and only the deflated k = 6 needs fewer operator
    # applications.  Undeflated, the constant's zero is the first value.
    ops = fem.assemble(generated())
    word = "true" if deflate else "false"
    for k in range(1, 9):
        assert main(["spectrum", *flags, "--k", str(k), "--deflate", word]) == EXIT_OK
        out = capsys.readouterr().out
        rows = out.split("eigenvalue residual\n")[1].splitlines()
        values = [float(row.split()[0]) for row in rows]
        below = eigen.solve_lowest(ops, k, deflate_constants=deflate)
        np.testing.assert_allclose(values, below.eigenvalues, rtol=1e-9, atol=0)
        iterations = int(out.split("iterations: ")[1].split()[0])
        assert (iterations < below.iterations) == (k == 6 and deflate)


@pytest.mark.parametrize("flags, tol", [
    (["--surface", "clifford", "--resolution", "64"], "1e-12"),
    (["--surface", "sphere", "--subdiv", "4", "--seed", "70"], "1e-09"),
], ids=["torus-1e-12", "sphere-1e-9"])
def test_spectrum_below_the_shifts_floor_solves_about_minus_one(flags, tol, capsys):
    # A tolerance below 1e-8 keeps the shift at -1, whose residuals reach it.
    # About 3, sphere 4 at seed 70 stops at a residual of 1.5e-9.
    rc = main(["spectrum", *flags, "--k", "6", "--tol", tol])
    assert rc == EXIT_OK
    assert "tolerance: %s" % float(tol) in capsys.readouterr().out


def test_spectrum_sphere_subdiv5_converges(capsys):
    rc = main(["spectrum", "--surface", "sphere", "--subdiv", "5", "--k", "6"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "dim: 10242" in out
    rows = out.splitlines()[out.splitlines().index("eigenvalue residual") + 1:]
    values = np.array([[float(t) for t in row.split()] for row in rows])
    assert values.shape == (6, 2)
    assert np.all(values[:, 1] <= 1e-8)
    assert values[:3, 0] == pytest.approx(2.0, rel=1e-3)


def test_spectrum_deflate_false(capsys):
    rc = main(["spectrum", "--surface", "clifford", "--resolution", "8",
               "--k", "2", "--deflate", "false"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "deflated: false" in out
    # the rows after the table header, whatever the sign of lambda_0
    lines = out.splitlines()
    rows = lines[lines.index("eigenvalue residual") + 1:]
    assert len(rows) == 2
    first = float(rows[0].split()[0])
    assert abs(first) < 1e-8


@pytest.mark.parametrize("word", ["true", "yes"])
def test_spectrum_deflate_true(word, capsys):
    rc = main(["spectrum", "--surface", "clifford", "--resolution", "8",
               "--k", "2", "--deflate", word])
    assert rc == EXIT_OK
    assert "deflated: true" in capsys.readouterr().out


def test_spectrum_deflate_rejects_other_words(capsys):
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--surface", "clifford", "--resolution", "8",
              "--deflate", "maybe"])
    assert info.value.code == EXIT_USAGE
    assert ("argument --deflate: expected true or false"
            in capsys.readouterr().err)


def test_spectrum_from_mesh_file(tmp_path, capsys):
    path = tmp_path / "m.smesh"
    mesh.write_mesh(mesh.generate_torus(10), path)
    rc = main(["spectrum", "--mesh", str(path), "--k", "2"])
    assert rc == EXIT_OK
    assert "dim: 100" in capsys.readouterr().out


def test_spectrum_of_an_unknown_surface_past_the_dense_cutoff(tmp_path, capsys):
    # The 3-subdivided icosphere turned out of the x4 = 0 slice (dim 642)
    # is no canonical surface, so its solve is the one about -1.
    sphere = mesh.generate_sphere(3)
    turn = np.eye(4)
    turn[2:, 2:] = [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
    path = tmp_path / "foreign.smesh"
    mesh.write_mesh(mesh.TriMesh(sphere.vertices @ turn.T, sphere.faces, None), path)
    rc = main(["spectrum", "--mesh", str(path), "--k", "6"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "surface: unknown\ndim: 642\n" in out
    below = eigen.solve_lowest(fem.assemble(mesh.read_mesh(path)), 6)
    rows = ["%r %r" % pair for pair in zip(below.eigenvalues.tolist(),
                                           below.residuals.tolist())]
    assert out.endswith("iterations: %d\neigenvalue residual\n%s\n"
                        % (below.iterations, "\n".join(rows)))


def test_spectrum_mesh_and_surface_conflict(capsys):
    rc = main(["spectrum", "--mesh", "x.smesh", "--surface", "clifford"])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("flag, message", [
    pytest.param("--k=0", "--k must be at least 1", id="k=0"),
    pytest.param("--tol=nan", "tol must lie in [1e-12, 1e-4]", id="tol=nan"),
    pytest.param("--seed=-1", "seed must be a non-negative integer", id="seed=-1"),
])
def test_spectrum_k_validation(monkeypatch, capsys, flag, message):
    # The finest torus takes a while to mesh; a bad flag is reported first.
    def unreachable(*args, **kwargs):
        raise AssertionError("the mesh was built before %s was checked" % flag)

    monkeypatch.setattr(cli, "generate", unreachable)
    rc = main(["spectrum", "--surface", "clifford", "--resolution", "256", flag])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: %s\n" % message


def test_rayleigh_coordinate(capsys):
    rc = main(["rayleigh", "--surface", "sphere", "--subdiv", "2", "--coord", "2"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "coordinate: 2" in out
    proj = float(next(l for l in out.splitlines()
                      if l.startswith("rayleigh-projected:")).split()[1])
    assert proj == pytest.approx(2.05, rel=0.05)


def test_rayleigh_truncation(capsys):
    rc = main(["rayleigh", "--surface", "clifford", "--resolution", "16",
               "--coord", "1", "--beta", "4", "--p0", "0,0"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "beta: 4.0" in out


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--surface", "clifford", "--resolution", "16",
               "--betas", "1,4,16", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("beta,rayleigh_raw")
    assert len(lines) == 4


def test_sweep_deduplicates_betas(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--surface", "clifford", "--resolution", "16",
               "--betas", "4,1,4", "--out", str(out)])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert "duplicate beta" in captured.err
    assert len(out.read_text().splitlines()) == 3


def test_sweep_bad_coord(capsys):
    rc = main(["sweep", "--surface", "clifford", "--resolution", "16",
               "--coord", "5", "--betas", "1,2"])
    assert rc == EXIT_USAGE
    assert "coordinate index must be in 1..4" in capsys.readouterr().err


def test_sweep_profiles(tmp_path, capsys):
    out = tmp_path / "s.csv"
    prof = tmp_path / "p.csv"
    rc = main(["sweep", "--surface", "clifford", "--resolution", "8",
               "--betas", "2,8", "--out", str(out), "--profiles", str(prof)])
    assert rc == EXIT_OK
    lines = prof.read_text().splitlines()
    assert lines[0] == "beta,distance,phi_beta,u_beta,x_i,abs_error"
    assert len(lines) == 1 + 2 * 64


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_huge_finite_beta_decays_to_zero(tmp_path):
    # At beta = 1e308, beta d^2 overflows to inf where d > 1.34, and
    # exp(-inf) = 0 is phi there.
    out = tmp_path / "s.csv"
    prof = tmp_path / "p.csv"
    rc = main(["sweep", "--surface", "clifford", "--resolution", "8",
               "--betas", "1,1e308", "--out", str(out), "--profiles", str(prof)])
    assert rc == EXIT_OK
    huge = out.read_text().splitlines()[2].split(",")
    assert huge[0] == "1e+308"
    assert huge[4] == "0.0"
    rows = [line.split(",") for line in prof.read_text().splitlines()[1:]]
    assert len(rows) == 2 * 64
    # phi is 1/beta at the base point (a vertex, d = 0) and 0 elsewhere.
    phis = {(row[1] == "0.0", row[2]) for row in rows if row[0] == "1e+308"}
    assert phis == {(True, "1e-308"), (False, "0.0")}


def test_verify_sphere_passes(tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    csv_path = tmp_path / "report.csv"
    rc = main(["verify", "--surface", "sphere", "--subdivs", "2,3,4",
               "--out", str(report_path), "--csv", str(csv_path)])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert "overall: pass" in captured.out
    assert "FAIL" not in captured.out
    assert "time " in captured.err
    assert "time levels " in captured.err
    report = verify.run_all(canonical.equatorial_sphere(2), resolutions=[2, 3, 4])
    assert captured.out.count("ok  ") == len(report.checks) == 17
    assert report_path.read_bytes() == verify.render_report(report).encode("ascii")
    assert csv_path.read_bytes() == verify.report_csv(report).encode("ascii")


def test_verify_zero_tolerance_fails(capsys):
    rc = main(["verify", "--surface", "clifford", "--resolutions", "8,12,16",
               "--tol", "0"])
    assert rc == EXIT_VERIFY_FAIL
    out = capsys.readouterr().out
    assert "overall: fail" in out
    assert "FAIL" in out


def test_verify_reruns_byte_identical(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    argv = ["verify", "--surface", "clifford", "--resolutions", "8,12,16"]
    assert main(argv + ["--out", str(a)]) in (EXIT_OK, EXIT_VERIFY_FAIL)
    assert main(argv + ["--out", str(b)]) in (EXIT_OK, EXIT_VERIFY_FAIL)
    assert a.read_bytes() == b.read_bytes()


def test_verify_unwritable_out(capsys):
    rc = main(["verify", "--surface", "sphere", "--subdivs", "1,2",
               "--out", "/nonexistent-dir/report.txt"])
    assert rc == EXIT_USAGE


def test_verify_bad_resolutions(capsys):
    rc = main(["verify", "--surface", "clifford", "--resolutions", "16"])
    assert rc == EXIT_VERIFY_FAIL or rc == EXIT_USAGE
    # One resolution cannot support convergence checks; the run must not crash.


@pytest.mark.parametrize("surface, flag", [
    ("clifford", "--resolutions="), ("sphere", "--subdivs="),
])
def test_verify_rejects_empty_level_list(capsys, surface, flag):
    # An empty list is not an absent flag: it must not run the defaults.
    rc = main(["verify", "--surface", surface, flag])
    assert rc == EXIT_USAGE
    assert "need at least two resolutions" in capsys.readouterr().err


def test_verify_malformed_resolutions(capsys):
    rc = main(["verify", "--surface", "clifford", "--resolutions", "a,b"])
    assert rc == EXIT_USAGE
    assert "--resolutions" in capsys.readouterr().err


def test_oracle_command(capsys):
    rc = main(["oracle", "--surface", "sphere", "--count", "3"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "area: 12.566370614359172" in out
    assert "second-fundamental-norm-sq: 0.0" in out
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert lines[0].split() == ["0.0", "1"]
    assert lines[1].split() == ["2.0", "3"]
    assert lines[2].split() == ["6.0", "5"]


def test_oracle_torus(capsys):
    rc = main(["oracle", "--surface", "clifford", "--count", "2"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "second-fundamental-norm-sq: 2.0" in out
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert lines[1].split() == ["2.0", "4"]


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# spectral defaults\nresolution = 12\nk = 3\n")
    for config in (["--config", str(cfg)], ["--config=%s" % cfg]):
        rc = main(["spectrum", "--surface", "clifford", *config])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "dim: 144" in out
        assert "k: 3" in out


def test_config_explicit_flag_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 3\n")
    rc = main(["spectrum", "--surface", "clifford", "--resolution", "12",
               "--config", str(cfg), "--k", "2"])
    assert rc == EXIT_OK
    assert "k: 2" in capsys.readouterr().out


def test_config_missing_file(capsys):
    rc = main(["spectrum", "--surface", "clifford", "--config", "/no/such.cfg"])
    assert rc == EXIT_USAGE


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("resolution 12\n")
    rc = main(["spectrum", "--surface", "clifford", "--config", str(cfg)])
    assert rc == EXIT_USAGE
    assert "line 1" in capsys.readouterr().err


def test_spectrum_reruns_byte_identical(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    argv = ["spectrum", "--surface", "clifford", "--resolution", "16", "--k", "4"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_nonconvergence_exit_code(monkeypatch, capsys):
    from eigenmin.eigen import NonConvergence

    def explode(*args, **kwargs):
        raise NonConvergence("residual 1.0e-03 above tolerance 1.0e-08 after 3000 iterations")

    monkeypatch.setattr(cli, "solve_lowest", explode)
    rc = main(["spectrum", "--surface", "clifford", "--resolution", "8"])
    assert rc == EXIT_SOLVER
    assert "residual" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--surface", "clifford", "--resolution", "8", "--betas", "1,nan"],
    ["sweep", "--surface", "clifford", "--resolution", "8", "--betas", "inf"],
    ["rayleigh", "--surface", "clifford", "--resolution", "8", "--beta", "nan"],
    ["rayleigh", "--surface", "clifford", "--resolution", "8", "--beta", "inf"],
    ["verify", "--surface", "clifford", "--resolutions", "8,16", "--betas", "1,nan"],
    ["sweep", "--surface", "clifford", "--resolution", "8", "--betas", "1,1,nan"],
])
def test_non_finite_beta_rejected(argv, capsys):
    # A rejected list gets no duplicate warning, and numpy raises none.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "beta must be finite and positive" in err
    assert "warning" not in err.lower()


@pytest.mark.parametrize("betas", [",", ""])
def test_sweep_rejects_empty_betas(capsys, betas):
    rc = main(["sweep", "--surface", "clifford", "--resolution", "8",
               "--betas", betas])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--betas: at least one beta value is required" in err


@pytest.mark.parametrize("betas, message", [
    ("4,1", "betas must be strictly ascending"),
    ("1,nan", "beta must be finite and positive"),
    ("inf", "beta must be finite and positive"),
    ("2,2", "betas must be strictly ascending"),
    (",", "at least one beta value is required"),
    ("", "at least one beta value is required"),
])
def test_verify_checks_betas_before_building_levels(monkeypatch, capsys,
                                                     betas, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a level was built before --betas was checked")

    monkeypatch.setattr(verify, "generate", unreachable)
    monkeypatch.setattr(verify, "solve_lowest", unreachable)
    rc = main(["verify", "--surface", "sphere", "--betas", betas])
    assert rc == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    pytest.param("--tol=" + tol, "tol must be finite and non-negative", id=tol)
    for tol in ("nan", "inf", "-inf", "-1", "-1e-300")
] + [
    pytest.param("--solver-tol=" + tol, "solver_tol must lie in [1e-12, 1e-4]",
                 id="solver-tol=" + tol)
    for tol in ("nan", "1e-13", "1e-3")
] + [
    pytest.param("--seed=-1", "seed must be a non-negative integer", id="seed=-1"),
])
def test_verify_checks_tol_before_building_levels(monkeypatch, capsys, flag,
                                                  message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a level was built before %s was checked" % flag)

    monkeypatch.setattr(verify, "generate", unreachable)
    monkeypatch.setattr(verify, "solve_lowest", unreachable)
    rc = main(["verify", "--surface", "clifford", flag])
    assert rc == EXIT_USAGE
    assert message in capsys.readouterr().err


def _profiles_argv(tmp_path, name):
    return ["sweep", "--surface", "clifford", "--resolution", "64", "--coord", "2",
            "--p0", "0.3,1.7", "--betas", "1,2,4,8,16,32,64,128,256,512,1024",
            "--out", str(tmp_path / "sweep.csv"),
            "--profiles", str(tmp_path / name)]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_profiles_pooled_equals_inline(tmp_path, monkeypatch, forked_profiles,
                                             forks):
    assert main(_profiles_argv(tmp_path, "forked.csv")) == EXIT_OK
    assert forks == [os.getpid()]
    monkeypatch.setattr(_fork, "cpus", lambda: 1)
    assert main(_profiles_argv(tmp_path, "inline.csv")) == EXIT_OK
    assert forks == [os.getpid()]
    inline = (tmp_path / "inline.csv").read_bytes()
    assert len(inline.splitlines()) == 1 + 11 * 64 * 64
    assert (tmp_path / "forked.csv").read_bytes() == inline
    _no_child_left()


@pytest.mark.parametrize("slow", ["parent", "child", "both"])
def test_sweep_profiles_bytes_do_not_depend_on_where_the_ends_meet(
        tmp_path, monkeypatch, forked_profiles, slow):
    # With one end slowed the ends meet near the other; with both slowed
    # unevenly they meet inside the file.  The slice where they meet is the
    # only one both may format.
    parent = os.getpid()
    real = trial._profile_rows
    log = tmp_path / "calls"

    def slowed(state, job):
        here = "parent" if os.getpid() == parent else "child"
        if slow == here:
            time.sleep(0.02)
        elif slow == "both":
            time.sleep(0.002 * (job[1] % 3))
        with open(log, "a") as fh:
            fh.write("%r %d\n" % (job[0], job[1]))
        return real(state, job)

    argv = ["sweep", "--surface", "clifford", "--resolution", "16",
            "--out", str(tmp_path / "sweep.csv")]
    monkeypatch.setattr(_fork, "cpus", lambda: 1)
    assert main(argv + ["--profiles", str(tmp_path / "inline.csv")]) == EXIT_OK
    monkeypatch.setattr(_fork, "cpus", lambda: 2)
    monkeypatch.setattr(trial, "_profile_rows", slowed)
    assert main(argv + ["--profiles", str(tmp_path / "slowed.csv")]) == EXIT_OK
    inline = (tmp_path / "inline.csv").read_bytes()
    assert len(inline.splitlines()) == 1 + 11 * 16 * 16
    assert (tmp_path / "slowed.csv").read_bytes() == inline
    calls = log.read_text().splitlines()
    assert len(set(calls)) == 11 * trial._PROFILE_SLICES
    assert len(calls) <= len(set(calls)) + 1
    _no_child_left()


def test_sweep_profiles_worker_error_exits_2(tmp_path, monkeypatch, capsys,
                                            forked_profiles):
    parent = os.getpid()
    real = _text.float_text

    def fail_in_child(values):
        if os.getpid() != parent:
            raise ValueError("formatting failed in child %d" % os.getpid())
        return real(values)

    monkeypatch.setattr(_text, "float_text", fail_in_child)
    assert main(_profiles_argv(tmp_path, "p.csv")) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: formatting failed in child" in err
    assert "child %d" % parent not in err
    _no_child_left()


def test_sweep_profiles_child_that_dies_exits_2(tmp_path, monkeypatch, capsys,
                                                forked_profiles):
    # A child that ends without its rows is an error with its exit code, not
    # a hang: the alarm fails the test if the writer never returns.
    parent = os.getpid()
    real = trial._profile_rows

    def die_in_child(state, job):
        if os.getpid() != parent:
            os._exit(7)
        return real(state, job)

    def hung(signum, frame):
        pytest.fail("sweep --profiles hung on a dead child")

    monkeypatch.setattr(trial, "_profile_rows", die_in_child)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        rc = main(_profiles_argv(tmp_path, "p.csv"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: the forked process sent no result (exit code 7)\n")
    _no_child_left()


def test_sweep_profiles_child_that_dies_in_pwrite_exits_2(tmp_path, monkeypatch, capsys,
                                                         forked_profiles):
    # The child writes its own rows; one that dies there is reported with
    # its exit code, like one that dies while it formats them.
    parent = os.getpid()
    real = os.pwrite

    def die_in_child(fd, data, offset):
        if os.getpid() != parent:
            os._exit(5)
        return real(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", die_in_child)
    assert main(_profiles_argv(tmp_path, "p.csv")) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: the forked process sent no result (exit code 5)\n")
    _no_child_left()


@pytest.mark.parametrize("failure", ["open", "head"])
def test_sweep_profiles_parent_failure_stops_the_child(tmp_path, monkeypatch, capsys,
                                                      forked_profiles, failure):
    # A parent that cannot open the file, or fails while it writes its head,
    # leaves at once: the child formats at most the slice it has begun and
    # writes nothing.  Each child slice takes 50 ms, so a child that went on
    # would log many.
    parent = os.getpid()
    real = trial._profile_rows
    log = tmp_path / "calls"

    def logged(state, job):
        with open(log, "a") as fh:
            fh.write("%d\n" % os.getpid())
        if os.getpid() == parent:
            raise ValueError("the head failed")
        time.sleep(0.05)
        return real(state, job)

    monkeypatch.setattr(trial, "_profile_rows", logged)
    argv = _profiles_argv(tmp_path, "p.csv")
    if failure == "open":
        argv[-1] = str(tmp_path / "missing" / "p.csv")
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert ("No such file or directory" if failure == "open" else "the head failed") in err
    calls = log.read_text().splitlines() if log.exists() else []
    assert len(calls) <= 2, calls
    _no_child_left()


# argv -> the stderr line of a usage error (exit 2).  "{torus}" is a torus
# SMESH file, "{foreign}" a closed unit-sphere mesh no surface is recognized
# in, "{bad_cfg}" a config file with a malformed line, "{nbsp_cfg}" one
# with a no-break space (byte 0xa0) on line 2, "{level_cfg}" one that sets
# --resolution, "{missing}" a path that does not exist.
USAGE_ERRORS = [
    (["mesh", "--surface", "clifford", "--subdiv", "3"],
     "--subdiv applies to the sphere; use --resolution"),
    (["spectrum", "--surface", "sphere", "--resolution", "8"],
     "--resolution applies to the torus; use --subdiv"),
    (["verify", "--surface", "clifford", "--subdivs", "2,3"],
     "--subdivs applies to the sphere; use --resolutions"),
    (["verify", "--surface", "sphere", "--resolutions", "8,16"],
     "--resolutions applies to the torus; use --subdivs"),
    (["mesh", "--surface", "clifford", "--resolution", "2"],
     "--resolution: resolution must be at least 3"),
    (["sweep", "--surface", "sphere", "--subdiv", "-1"],
     "--subdiv: subdivisions must be nonnegative"),
    # levels beyond the README's time and memory budget
    (["mesh", "--surface", "clifford", "--resolution", "512"],
     "--resolution: resolution must be at most 256, the finest torus level"
     " in the README's time and memory budget"),
    (["spectrum", "--surface", "sphere", "--subdiv", "8"],
     "--subdiv: subdivisions must be at most 7, the finest sphere level"
     " in the README's time and memory budget"),
    (["verify", "--surface", "clifford", "--resolutions", "16,512"],
     "resolution must be at most 256, the finest torus level"
     " in the README's time and memory budget"),
    (["verify", "--surface", "sphere", "--subdivs", "2,8"],
     "subdivisions must be at most 7, the finest sphere level"
     " in the README's time and memory budget"),
    (["spectrum", "--mesh", "{torus}", "--surface", "clifford"],
     "give either --mesh or --surface, not both"),
    (["rayleigh"], "a mesh source is required: --mesh or --surface"),
    (["spectrum", "--surface", "clifford", "--resolution", "8", "--k", "0"],
     "--k must be at least 1"),
    (["rayleigh", "--mesh", "{foreign}"],
     "rayleigh needs a canonical mesh (unrecognized vertices)"),
    (["sweep", "--mesh", "{foreign}"],
     "sweep needs a canonical mesh (unrecognized vertices)"),
    (["rayleigh", "--mesh", "{torus}", "--beta", "4", "--p0", "1,2,3"],
     "--p0: expected 2 comma-separated components for this surface"),
    (["sweep", "--mesh", "{torus}", "--p0", "a,b"],
     "--p0: expected a comma-separated list of numbers"),
    # a non-finite base point, rejected before the mesh is assembled
    (["rayleigh", "--mesh", "{torus}", "--beta", "4", "--p0=nan,0"],
     "--p0: components must be finite"),
    (["rayleigh", "--mesh", "{torus}", "--beta", "4", "--p0=inf,0"],
     "--p0: components must be finite"),
    (["sweep", "--mesh", "{torus}", "--p0=nan,0"],
     "--p0: components must be finite"),
    (["sweep", "--mesh", "{torus}", "--p0=0,-inf"],
     "--p0: components must be finite"),
    # a beta so small that the quadratic forms of u_beta would overflow
    (["rayleigh", "--surface", "clifford", "--resolution", "8", "--beta", "1e-300"],
     "beta 1e-300 is below 1e-100, where the quadratic forms of u_beta overflow"),
    (["sweep", "--mesh", "{torus}", "--betas", "1e-300"],
     "--betas: beta 1e-300 is below 1e-100, where the quadratic forms of"
     " u_beta overflow"),
    (["verify", "--surface", "clifford", "--resolutions", "8,12",
      "--betas", "1e-300,1"],
     "beta 1e-300 is below 1e-100, where the quadratic forms of u_beta overflow"),
    (["sweep", "--mesh", "{torus}", "--betas", "a"],
     "--betas: expected a comma-separated list of numbers"),
    (["sweep", "--mesh", "{torus}", "--betas", "1,inf"],
     "--betas: beta must be finite and positive"),
    (["verify", "--surface", "clifford", "--betas", "x"],
     "--betas: expected a comma-separated list of numbers"),
    (["verify", "--surface", "clifford", "--resolutions", "a,b"],
     "--resolutions: expected a comma-separated list of integers"),
    (["rayleigh", "--mesh", "{torus}", "--coord", "5"],
     "coordinate index must be in 1..4"),
    (["rayleigh", "--mesh", "{torus}", "--beta", "4", "--coord", "5"],
     "coordinate index must be in 1..4"),
    (["rayleigh", "--mesh", "{torus}", "--beta", "4", "--coord", "0"],
     "coordinate index must be in 1..4"),
    (["sweep", "--mesh", "{torus}", "--coord", "5"],
     "coordinate index must be in 1..4"),
    (["sweep", "--mesh", "{torus}", "--coord", "0"],
     "coordinate index must be in 1..4"),
    (["oracle", "--surface", "sphere", "--n", "0"],
     "--n: intrinsic_dim must be positive"),
    (["oracle", "--surface", "sphere", "--count", "0"],
     "--count must be at least 1"),
    (["oracle", "--surface", "sphere", "--config", "{missing}"],
     "--config: [Errno 2] No such file or directory: '{missing}'"),
    (["oracle", "--surface", "sphere", "--config", "{bad_cfg}"],
     "--config: line 2 is not 'key = value'"),
    (["oracle", "--surface", "sphere", "--config", "{nbsp_cfg}"],
     "--config: line 2 is not ASCII"),
    (["oracle", "--surface", "sphere", "--config"],
     "--config needs a file path"),
    # flags the command would otherwise ignore
    (["spectrum", "--mesh", "{torus}", "--resolution", "8"],
     "--resolution applies to --surface, not to --mesh"),
    (["sweep", "--mesh", "{torus}", "--subdiv", "2"],
     "--subdiv applies to --surface, not to --mesh"),
    (["rayleigh", "--mesh", "{torus}", "--config", "{level_cfg}"],
     "--resolution applies to --surface, not to --mesh"),
    (["rayleigh", "--mesh", "{torus}", "--p0", "1,2"],
     "--p0 applies only with --beta"),
    (["oracle", "--surface", "clifford", "--n", "5"],
     "--n: the Clifford torus has intrinsic dimension 2"),
    (["verify", "--surface", "clifford", "--tol", "nan"],
     "tol must be finite and non-negative"),
    (["verify", "--surface", "clifford", "--solver-tol", "nan"],
     "solver_tol must lie in [1e-12, 1e-4]"),
    (["verify", "--surface", "clifford", "--resolutions", "8,12", "--seed", "-1"],
     "seed must be a non-negative integer"),
    # a repeated level, or a coarser one given as the finest
    (["verify", "--surface", "clifford", "--resolutions", "16,16"],
     "resolutions must be strictly ascending"),
    (["verify", "--surface", "clifford", "--resolutions", "32,16"],
     "resolutions must be strictly ascending"),
    (["verify", "--surface", "sphere", "--subdivs", "3,3"],
     "resolutions must be strictly ascending"),
    (["verify", "--surface", "sphere", "--subdivs", "3,2"],
     "resolutions must be strictly ascending"),
    # dense (dim 64) and sparse (dim 1024) eigensolver paths
    (["spectrum", "--surface", "clifford", "--resolution", "8", "--seed", "-1"],
     "seed must be a non-negative integer"),
    (["spectrum", "--surface", "clifford", "--resolution", "32", "--seed", "-1"],
     "seed must be a non-negative integer"),
]


@pytest.mark.parametrize("argv", [
    ["mesh", "--surface", "clifford", "--resolution", "8"],
    ["oracle", "--surface", "sphere"],
    ["rayleigh", "--surface", "clifford", "--resolution", "8"],
    ["sweep", "--surface", "clifford", "--resolution", "8"],
], ids=lambda argv: argv[0])
def test_seed_is_a_usage_error_where_nothing_is_solved(argv, capsys):
    # Only spectrum and verify run the seeded eigensolver.
    with pytest.raises(SystemExit) as info:
        main(argv + ["--seed", "3"])
    assert info.value.code == EXIT_USAGE
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.fixture(scope="module")
def usage_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("usage")
    mesh.write_mesh(mesh.generate_torus(8), root / "t8.smesh")
    # the 1-subdivided icosphere turned out of the x4 = 0 slice
    sphere = mesh.generate_sphere(1)
    turn = np.eye(4)
    turn[2:, 2:] = [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
    foreign = mesh.TriMesh(sphere.vertices @ turn.T, sphere.faces, None)
    mesh.write_mesh(foreign, root / "foreign.smesh")
    (root / "bad.cfg").write_text("count = 3\nn 2\n")
    (root / "nbsp.cfg").write_bytes(b"count = 3\nn\xa0= 2\n")
    (root / "level.cfg").write_text("resolution = 12\n")
    return {"torus": str(root / "t8.smesh"), "foreign": str(root / "foreign.smesh"),
            "bad_cfg": str(root / "bad.cfg"), "nbsp_cfg": str(root / "nbsp.cfg"),
            "missing": str(root / "missing.cfg"), "level_cfg": str(root / "level.cfg")}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_error(argv, message, usage_files, capsys):
    rc = main([a.format(**usage_files) for a in argv])
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s\n" % message.format(**usage_files)
