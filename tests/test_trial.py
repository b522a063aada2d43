"""Tests for truncated coordinate trial functions and the beta sweep."""

import math

import numpy as np
import pytest

from eigenmin import canonical
from eigenmin.trial import (
    SWEEP_HEADER,
    TruncationParams,
    build_truncation,
    orthogonality_defect,
    sweep_beta,
    sweep_csv,
    truncation_gradient_sq,
    truncation_profile,
)

TORUS = canonical.clifford_torus()
SPHERE = canonical.equatorial_sphere(2)


def _params(coord=1, base=(0.0, 0.0), beta=1.0):
    return TruncationParams(coord, np.asarray(base, dtype=float), beta)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(beta=0.0)
    with pytest.raises(ValueError):
        _params(beta=-2.0)
    with pytest.raises(ValueError):
        _params(coord=0)
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            _params(beta=beta)


def test_truncation_value_worked_example(torus64):
    # u at the antipodal grid point (pi, pi) with beta = 1, first coordinate:
    # x_1 = -1/sqrt(2), d = pi, u = x_1 (1 - exp(-pi^2)).
    u = build_truncation(torus64, _params(beta=1.0))
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
    u = build_truncation(torus64, _params(beta=1.0))
    j = int(np.argmin(np.linalg.norm(torus64.param_coords, axis=1)))
    assert u[j] == pytest.approx(0.0, abs=1e-15)


def test_truncation_approaches_coordinate(torus64):
    # For huge beta the perturbation term underflows away from the base point.
    u = build_truncation(torus64, _params(beta=1e9))
    x = torus64.vertices[:, 0]
    assert np.max(np.abs(u - x)) <= 1.0 / math.sqrt(2.0) / 1e9 + 1e-300


def test_gradient_cut_locus_rejected():
    with pytest.raises(ValueError, match="cut locus"):
        truncation_gradient_sq(TORUS, _params(), np.array([math.pi, 0.0]))
    p0 = np.array([1.0, 0.0, 0.0, 0.0])
    antipode = -p0
    with pytest.raises(ValueError, match="cut locus"):
        truncation_gradient_sq(SPHERE, TruncationParams(1, p0, 2.0), antipode)


def _fd_value(surface, params, p):
    x = canonical.embed(surface, p)[params.coord_index - 1]
    d = canonical.geodesic_distance(surface, p, params.base_point)
    arg = params.beta * d * d
    phi = 1.0 - (math.exp(-arg) if arg < 700.0 else 0.0) / params.beta
    return float(x * phi)


def test_torus_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    params = _params(coord=2, base=(0.4, -1.1), beta=3.0)
    h = 1e-6
    checked = 0
    while checked < 40:
        p = rng.uniform(-math.pi, math.pi, size=2)
        delta = canonical.torus_angle_deltas(p, params.base_point)
        if np.min(np.abs(np.abs(delta) - math.pi)) < 0.05:
            continue
        analytic = truncation_gradient_sq(TORUS, params, p)
        dth = (_fd_value(TORUS, params, p + [h, 0]) - _fd_value(TORUS, params, p - [h, 0])) / (2 * h)
        dph = (_fd_value(TORUS, params, p + [0, h]) - _fd_value(TORUS, params, p - [0, h])) / (2 * h)
        fd = 2.0 * (dth * dth + dph * dph)
        assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)
        checked += 1


def test_sphere_gradient_matches_finite_differences():
    rng = np.random.default_rng(22)
    base = np.array([1.0, 0.0, 0.0, 0.0])
    params = TruncationParams(3, base, 2.5)
    h = 1e-6
    checked = 0
    while checked < 40:
        v = rng.normal(size=4)
        v[3] = 0.0
        p = v / np.linalg.norm(v)
        d = canonical.geodesic_distance(SPHERE, p, base)
        if d < 0.1 or d > math.pi - 0.1:
            continue
        # Orthonormal tangent frame inside the equatorial slice.
        e = rng.normal(size=4)
        e[3] = 0.0
        t1 = e - (e @ p) * p
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(p[:3], t1[:3])
        t2 = np.concatenate([t2, [0.0]])
        grads = []
        for t in (t1, t2):
            plus = math.cos(h) * p + math.sin(h) * t
            minus = math.cos(h) * p - math.sin(h) * t
            grads.append(
                (_fd_value(SPHERE, params, plus) - _fd_value(SPHERE, params, minus))
                / (2 * h)
            )
        fd = grads[0] ** 2 + grads[1] ** 2
        analytic = truncation_gradient_sq(SPHERE, params, p)
        assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)
        checked += 1


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
    u4 = build_truncation(torus64, _params(beta=4.0))
    assert orthogonality_defect(ops64, u4) == pytest.approx(0.0126135679427, rel=1e-9)


def test_sweep_validation(torus32, ops32):
    base = _params(beta=1.0)
    with pytest.raises(ValueError):
        sweep_beta(torus32, ops32, base, [1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        sweep_beta(torus32, ops32, base, [4.0, 2.0])
    with pytest.raises(ValueError):
        sweep_beta(torus32, ops32, base, [-1.0, 2.0])
    with pytest.raises(ValueError):
        sweep_beta(torus32, ops32, base, [])
    with pytest.raises(ValueError, match="coord_index"):
        sweep_beta(torus32, ops32, _params(coord=5), [1.0])


def test_sweep_invariants_torus(torus32, ops32):
    betas = [float(2**j) for j in range(11)]
    records = sweep_beta(torus32, ops32, _params(), betas)
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
    base = TruncationParams(1, np.array([1.0, 0.0, 0.0, 0.0]), 1.0)
    records = sweep_beta(sphere4, ops_s4, base, [1024.0])
    assert records[0].rayleigh_projected == pytest.approx(2.00288672662507, rel=1e-10)
    assert records[0].sup_error == pytest.approx(1.0 / 1024.0, rel=1e-12)


def test_sweep_csv_format(torus16, ops16):
    records = sweep_beta(torus16, ops16, _params(), [1.0, 8.0])
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


def test_profile_rows_sorted_and_consistent(torus16):
    params = _params(beta=2.0)
    rows = truncation_profile(torus16, params)
    assert rows.shape == (torus16.vertex_count, 5)
    dists = rows[:, 0]
    assert np.all(np.diff(dists) >= 0.0)
    for d, phi, u, x, err in rows[:20]:
        assert err == pytest.approx(abs(u - x), abs=1e-15)
        assert err == pytest.approx(abs(x) * phi, rel=1e-12, abs=1e-15)
    # u_beta is the truncation build_truncation samples, bit for bit.
    d = np.asarray(canonical.geodesic_distance(TORUS, torus16.param_coords,
                                               params.base_point))
    order = np.lexsort((np.arange(torus16.vertex_count), d))
    assert np.array_equal(rows[:, 0], d[order])
    assert np.array_equal(rows[:, 2], build_truncation(torus16, params)[order])
