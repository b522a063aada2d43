"""Tests for truncated coordinate trial functions and the beta sweep."""

import dataclasses
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from eigenmin import _fork, canonical
from eigenmin.trial import (
    SWEEP_HEADER,
    build_truncation,
    orthogonality_defect,
    sweep_beta,
    sweep_csv,
    truncation_profile,
    write_profiles,
)

TORUS = canonical.clifford_torus()
P0 = np.zeros(2)  # the torus base point (theta, phi) = (0, 0)


def test_build_truncation_validation(torus16):
    for beta in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            build_truncation(torus16, 1, P0, beta)
    for coord in (0, 5):
        with pytest.raises(ValueError, match=r"coordinate index must be in 1\.\.4"):
            build_truncation(torus16, coord, P0, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_smallest_beta_keeps_quadratic_forms_finite(torus16, ops16):
    (record,) = sweep_beta(torus16, ops16, 1, P0, [1e-100])
    assert np.isfinite(dataclasses.astuple(record)).all()
    with pytest.raises(ValueError, match="beta 5e-101 is below 1e-100"):
        sweep_beta(torus16, ops16, 1, P0, [5e-101, 1.0])


def test_truncation_value_worked_example(torus64):
    # u at the antipodal grid point (pi, pi) with beta = 1, first coordinate:
    # x_1 = -1/sqrt(2), d = pi, u = x_1 (1 - exp(-pi^2)).
    u = build_truncation(torus64, 1, P0, 1.0)
    j = int(
        np.argmin(
            np.linalg.norm(torus64.param_coords - np.array([math.pi, math.pi]), axis=1)
        )
    )
    exact = (-1.0 / math.sqrt(2.0)) * (1.0 - math.exp(-math.pi**2))
    assert u[j] == pytest.approx(exact, rel=1e-14)
    assert u[j] == pytest.approx(-0.7070702073708381, rel=1e-12)


def test_truncation_vanishes_at_base(torus64):
    # phi(0) = 1 - 1/beta, so u(p0) = x(p0) (1 - 1/beta); with beta = 1 it is 0.
    u = build_truncation(torus64, 1, P0, 1.0)
    j = int(np.argmin(np.linalg.norm(torus64.param_coords, axis=1)))
    assert u[j] == pytest.approx(0.0, abs=1e-15)


def test_truncation_approaches_coordinate(torus64):
    # For huge beta the perturbation term underflows away from the base point.
    u = build_truncation(torus64, 1, P0, 1e9)
    x = torus64.vertices[:, 0]
    assert np.max(np.abs(u - x)) <= 1.0 / math.sqrt(2.0) / 1e9 + 1e-300


def test_orthogonality_defect(ops64, torus64):
    x1 = torus64.vertices[:, 0]
    assert orthogonality_defect(ops64, x1) < 1e-10
    ones = np.ones(ops64.dim)
    assert orthogonality_defect(ops64, ones) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        orthogonality_defect(ops64, np.zeros(ops64.dim))
    with pytest.raises(ValueError, match="nodal array has length"):
        orthogonality_defect(ops64, x1[:-1])
    with pytest.raises(ValueError, match="non-finite"):
        orthogonality_defect(ops64, np.full(ops64.dim, np.nan))
    u4 = build_truncation(torus64, 1, P0, 4.0)
    assert orthogonality_defect(ops64, u4) == pytest.approx(0.0126135679427, rel=1e-9)


def test_sweep_validation(torus32, ops32):
    with pytest.raises(ValueError):
        sweep_beta(torus32, ops32, 1, P0, [1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        sweep_beta(torus32, ops32, 1, P0, [4.0, 2.0])
    with pytest.raises(ValueError):
        sweep_beta(torus32, ops32, 1, P0, [-1.0, 2.0])
    with pytest.raises(ValueError):
        sweep_beta(torus32, ops32, 1, P0, [])
    for coord in (0, 5):
        with pytest.raises(ValueError, match=r"coordinate index must be in 1\.\.4"):
            sweep_beta(torus32, ops32, coord, P0, [1.0])


def test_sweep_invariants_torus(torus32, ops32):
    betas = [float(2**j) for j in range(11)]
    records = sweep_beta(torus32, ops32, 1, P0, betas)
    assert [r.beta for r in records] == betas
    xmax = float(np.max(np.abs(torus32.vertices[:, 0])))
    lam1 = 2.01289238760208  # discrete lambda_1 at this resolution
    last_proj = None
    for r in records:
        assert np.isfinite(
            [r.rayleigh_raw, r.rayleigh_projected, r.orthogonality_defect,
             r.sup_error, r.grad_l2_error]
        ).all()
        # The deviation peaks at the base vertex, so the bound is attained.
        assert r.sup_error == pytest.approx(xmax / r.beta, rel=1e-12)
        assert r.sup_error <= xmax / r.beta + 1e-12
        assert r.rayleigh_projected >= lam1 - 1e-7
        assert r.orthogonality_defect >= 0.0
        if last_proj is not None and r.beta >= 64.0:
            assert r.rayleigh_projected <= last_proj + 1e-12
        last_proj = r.rayleigh_projected
    assert records[-1].rayleigh_projected == pytest.approx(2.0128927759738473, rel=1e-10)
    # Defect decays with beta.
    assert records[-1].orthogonality_defect < records[2].orthogonality_defect


def test_sweep_final_value_sphere(sphere4, ops_s4):
    records = sweep_beta(sphere4, ops_s4, 1, np.array([1.0, 0.0, 0.0, 0.0]), [1024.0])
    assert records[0].rayleigh_projected == pytest.approx(2.00288672662507, rel=1e-10)
    assert records[0].sup_error == pytest.approx(1.0 / 1024.0, rel=1e-12)


def test_sweep_csv_format(torus16, ops16):
    records = sweep_beta(torus16, ops16, 1, P0, [1.0, 8.0])
    text = sweep_csv(records)
    lines = text.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert SWEEP_HEADER == (
        "beta,rayleigh_raw,rayleigh_projected,orthogonality_defect,"
        "sup_error,grad_l2_error"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == 6
    assert float(first[0]) == 1.0
    assert float(first[3]) == records[0].orthogonality_defect


def test_write_profiles_checks_its_betas(torus16, tmp_path):
    path = tmp_path / "profiles.csv"
    with pytest.raises(ValueError, match="at least one beta"):
        write_profiles(path, torus16, 1, P0, [])
    with pytest.raises(ValueError, match="strictly ascending"):
        write_profiles(path, torus16, 1, P0, [4.0, 1.0])
    assert not path.exists()


def test_forked_profile_writer_never_holds_the_tail(torus64, tmp_path, monkeypatch,
                                                   forked_profiles):
    # The child writes its own rows into the file, so this process holds
    # about what it holds when it formats every row itself.
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    betas = [2.0 ** k for k in range(11)]
    peaks = {}
    for cpus in (2, 1):
        monkeypatch.setattr(_fork, "cpus", lambda: cpus)
        tracemalloc.start()
        try:
            write_profiles(tmp_path / ("%d.csv" % cpus), torus64, 2, P0, betas)
            peaks[cpus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "2.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
    assert peaks[2] < 1.5 * peaks[1], peaks


def test_profiles_into_a_pipe_are_written_in_one_process(torus16, tmp_path, monkeypatch,
                                                        forked_profiles):
    # A child writes its rows at a file offset, which a pipe does not have.
    def no_fork():
        raise AssertionError("forked a child for a pipe")

    monkeypatch.setattr(os, "fork", no_fork)
    betas = [1.0, 4.0, 16.0]
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        write_profiles(fifo, torus16, 2, P0, betas)
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive()
    monkeypatch.setattr(_fork, "cpus", lambda: 1)
    write_profiles(tmp_path / "file.csv", torus16, 2, P0, betas)
    assert received == [(tmp_path / "file.csv").read_bytes()]


def test_profile_rows_sorted_and_consistent(torus16):
    rows = truncation_profile(torus16, 1, P0, 2.0)
    assert rows.shape == (torus16.vertex_count, 5)
    dists = rows[:, 0]
    assert np.all(np.diff(dists) >= 0.0)
    for d, phi, u, x, err in rows[:20]:
        assert err == pytest.approx(abs(u - x), abs=1e-15)
        assert err == pytest.approx(abs(x) * phi, rel=1e-12, abs=1e-15)
    # u_beta is the truncation build_truncation samples, bit for bit.
    d = np.asarray(canonical.geodesic_distance(TORUS, torus16.param_coords, P0))
    order = np.lexsort((np.arange(torus16.vertex_count), d))
    assert np.array_equal(rows[:, 0], d[order])
    assert np.array_equal(rows[:, 2], build_truncation(torus16, 1, P0, 2.0)[order])
