"""Tests for P1 operator assembly and the derived geometric functionals."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from eigenmin import fem, mesh
from eigenmin.fem import (
    FemOperators,
    assemble,
    coordinate_function,
    coordinate_gradient_identity,
    project_mean_zero,
    rayleigh,
    takahashi_residual,
    willmore_energy,
)
from eigenmin.mesh import MeshError, TriMesh


def _unit_right_triangle():
    verts = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    faces = np.array([[0, 1, 2]])
    return TriMesh(verts, faces)


def test_single_triangle_element_matrices():
    # Hand-checked element matrices for the unit right triangle: area 1/2,
    # stiffness (1/2) [[2,-1,-1],[-1,1,0],[-1,0,1]], consistent mass
    # (A/12) (ones + I).
    ops = assemble(_unit_right_triangle())
    S = ops.stiffness.toarray()
    M = ops.mass.toarray()
    S_exact = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    M_exact = (0.5 / 12.0) * (np.ones((3, 3)) + np.eye(3))
    assert np.max(np.abs(S - S_exact)) < 1e-15
    assert np.max(np.abs(M - M_exact)) < 1e-16
    assert ops.mass_lumped == pytest.approx(np.full(3, 0.5 / 3.0), rel=1e-15)


def _coo_reference(m):
    """Element-by-element COO assembly of (S, M), duplicates summed by scipy."""
    V, F = m.vertices, m.faces
    n = m.vertex_count
    areas = mesh.face_geometry(V, F)[1]
    s_rows, s_cols, s_vals = [], [], []
    for i in range(3):
        a, b, c = F[:, i], F[:, (i + 1) % 3], F[:, (i + 2) % 3]
        dot = np.einsum("ij,ij->i", V[b] - V[a], V[c] - V[a])
        half_cot = 0.25 * dot / areas  # half the cotangent of the angle at a
        s_rows += [b, c, b, c]
        s_cols += [c, b, b, c]
        s_vals += [-half_cot, -half_cot, half_cot, half_cot]
    S = sp.coo_matrix((np.concatenate(s_vals),
                       (np.concatenate(s_rows), np.concatenate(s_cols))), shape=(n, n))
    pairs = [(i, j) for i in range(3) for j in range(3)]
    M = sp.coo_matrix((
        np.concatenate([areas / (6.0 if i == j else 12.0) for i, j in pairs]),
        (np.concatenate([F[:, i] for i, _ in pairs]),
         np.concatenate([F[:, j] for _, j in pairs])),
    ), shape=(n, n))
    return S.tocsr(), M.tocsr()


@pytest.mark.parametrize("maker", [lambda: mesh.generate_torus(16),
                                   lambda: mesh.generate_sphere(3)])
def test_assemble_matches_elementwise_reference(maker):
    m = maker()
    ops = assemble(m)
    S, M = _coo_reference(m)
    assert abs(ops.stiffness - S).max() <= 2e-15
    assert abs(ops.mass - M).max() <= 2e-15 * abs(M).max()
    # S and M are stored over the same sparsity pattern
    assert np.array_equal(ops.stiffness.indptr, ops.mass.indptr)
    assert np.array_equal(ops.stiffness.indices, ops.mass.indices)


def _per_corner_cot_stiffness(m, ops):
    """S.data rebuilt from the per-corner cotangent cot(a, b) of the edge
    vectors a, b leaving each corner, summed into S's own sparsity pattern
    in the order assemble sums them: faces in order, corner 0, 1, 2."""
    V, F = m.vertices, m.faces
    nv = m.vertex_count

    def dot(a, b):
        return np.einsum("ij,ij->i", a, b)

    def cot(a, b):
        cross_sq = dot(a, a) * dot(b, b) - dot(a, b) ** 2
        return dot(a, b) / np.sqrt(np.maximum(cross_sq, fem._AREA_FLOOR ** 2))

    p0, p1, p2 = V[F[:, 0]], V[F[:, 1]], V[F[:, 2]]
    half_cot = 0.5 * np.concatenate(
        [cot(p1 - p0, p2 - p0), cot(p2 - p1, p0 - p1), cot(p0 - p2, p1 - p2)])
    S = ops.stiffness
    rows = np.repeat(np.arange(nv), np.diff(S.indptr))
    keys = rows.astype(np.int64) * nv + S.indices
    tail = np.concatenate([F[:, 1], F[:, 2], F[:, 0]]).astype(np.int64)
    head = np.concatenate([F[:, 2], F[:, 0], F[:, 1]]).astype(np.int64)
    slot = np.searchsorted(keys, np.concatenate([tail * nv + head, head * nv + tail]))
    data = np.bincount(slot, np.tile(-half_cot, 2), minlength=S.nnz)
    diag = np.searchsorted(keys, np.arange(nv, dtype=np.int64) * (nv + 1))
    data[diag] = -np.bincount(rows, data, minlength=nv)
    return data


@pytest.mark.parametrize("maker", [lambda: mesh.generate_torus(3),
                                   lambda: mesh.generate_torus(16),
                                   lambda: mesh.generate_sphere(0),
                                   lambda: mesh.generate_sphere(2)],
                         ids=["torus3", "torus16", "sphere0", "sphere2"])
def test_stiffness_bit_equals_per_corner_cotangents(maker):
    m = maker()
    ops = assemble(m)
    assert np.array_equal(ops.stiffness.data, _per_corner_cot_stiffness(m, ops))


# sha256 of indptr, indices and data of S, then of M, then the lumped mass,
# taken before assemble found its pattern with one stable sort (numpy 2.4,
# x86-64).  The bits of every array are part of what assemble promises.
GOLDEN_OPERATORS = {
    "torus8": (lambda: mesh.generate_torus(8),
               "a1b7df3db0d476e4767c7be6c68ecc1811885288e038419fc4360d4683529ca6"),
    "sphere2": (lambda: mesh.generate_sphere(2),
                "6e0fd287271c046431eb15a98682ceb7781e2fdc5e2e54bd39d25662c071dad2"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OPERATORS))
def test_assemble_golden_bits(name):
    maker, digest = GOLDEN_OPERATORS[name]
    ops = assemble(maker())
    h = hashlib.sha256()
    for matrix in (ops.stiffness, ops.mass):
        for array in (matrix.indptr, matrix.indices, matrix.data):
            h.update(array.tobytes())
    h.update(ops.mass_lumped.tobytes())
    assert h.hexdigest() == digest
    # one pattern, held once
    assert np.shares_memory(ops.stiffness.indices, ops.mass.indices)
    assert np.shares_memory(ops.stiffness.indptr, ops.mass.indptr)


def test_assemble_shapes_and_symmetry(ops64, torus64):
    assert ops64.dim == torus64.vertex_count
    assert ops64.stiffness.shape == (ops64.dim, ops64.dim)
    asym = abs(ops64.stiffness - ops64.stiffness.T).max()
    assert asym < 1e-14
    asym_m = abs(ops64.mass - ops64.mass.T).max()
    assert asym_m < 1e-18


def test_stiffness_annihilates_constants(ops64, ops_s4):
    for ops in (ops64, ops_s4):
        ones = np.ones(ops.dim)
        assert np.max(np.abs(ops.stiffness @ ones)) < 1e-10


def test_mass_totals_equal_area(ops64, torus64, ops_s4, sphere4):
    for ops, m in ((ops64, torus64), (ops_s4, sphere4)):
        area = mesh.mesh_stats(m).total_area
        assert ops.mass.sum() == pytest.approx(area, rel=1e-12)
        assert ops.mass_lumped.sum() == pytest.approx(area, rel=1e-12)
        assert np.all(ops.mass_lumped > 0.0)
        rows = np.asarray(ops.mass.sum(axis=1)).ravel()
        assert rows == pytest.approx(ops.mass_lumped, rel=1e-12)


def test_lumped_mass_follows_the_mass_matrix(torus64, ops64):
    # A pencil is its two matrices: one replaced by hand carries the lumped
    # mass and the dimension of its own M, and so does its Willmore energy.
    assert [f.name for f in dataclasses.fields(FemOperators)] == ["stiffness", "mass"]
    doubled = dataclasses.replace(ops64, mass=2.0 * ops64.mass)
    assert doubled.dim == ops64.dim
    np.testing.assert_array_equal(doubled.mass_lumped, 2.0 * ops64.mass_lumped)
    # S x = 2 m_L x on the torus grid, so halving m_L^{-1} S x leaves a
    # radial w and W is the doubled lumped area.
    assert willmore_energy(torus64, doubled) == pytest.approx(
        2.0 * willmore_energy(torus64, ops64), rel=1e-14)


def test_mass_positive_definite_small(ops16):
    M = ops16.mass.toarray()
    w = scipy.linalg.eigvalsh(M)
    assert w.min() > 0.0


def test_assemble_rejects_degenerate_face(torus16):
    verts = torus16.vertices.copy()
    faces = torus16.faces
    a, b, c = faces[7]
    verts[b] = verts[a]
    with pytest.raises(MeshError, match="degenerate face 7"):
        assemble(TriMesh(verts, faces))


def test_coordinate_function(torus16):
    x2 = coordinate_function(torus16, 2)
    assert isinstance(x2, np.ndarray)
    assert np.array_equal(x2, torus16.vertices[:, 1])
    with pytest.raises(ValueError):
        coordinate_function(torus16, 0)
    with pytest.raises(ValueError):
        coordinate_function(torus16, 5)


def test_rayleigh_basics(ops16, torus16):
    ones = np.ones(ops16.dim)
    assert rayleigh(ops16, ones) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        rayleigh(ops16, np.zeros(ops16.dim))
    x1 = coordinate_function(torus16, 1)
    assert rayleigh(ops16, x1) > 0.0


def test_project_mean_zero(ops64, torus64):
    u = coordinate_function(torus64, 1) + 3.5
    w = project_mean_zero(ops64, u)
    ones = np.ones(ops64.dim)
    mean = float(ones @ (ops64.mass @ w))
    assert abs(mean) < 1e-12
    again = project_mean_zero(ops64, w)
    assert np.max(np.abs(again - w)) < 1e-14
    # Array in, array out.
    w1 = project_mean_zero(ops64, coordinate_function(torus64, 1))
    assert isinstance(w1, np.ndarray)


def _face_gradient_sq(m, u):
    """Per-face squared gradient norm of the P1 interpolant of ``u``."""
    corners, _ = mesh.face_geometry(m.vertices, m.faces)
    return fem._gradient_sq(m.faces, corners[0], np.asarray(u, dtype=float))


def test_energy_matches_face_gradients(ops32, torus32):
    rng = np.random.default_rng(5)
    u = rng.normal(size=ops32.dim)
    quad = float(u @ (ops32.stiffness @ u))
    areas = mesh.face_geometry(torus32.vertices, torus32.faces)[1]
    total = float(np.sum(areas * _face_gradient_sq(torus32, u)))
    assert quad == pytest.approx(total, rel=1e-12)


def test_face_gradient_linear_exact():
    tri = _unit_right_triangle()
    u = 2.0 + 3.0 * tri.vertices[:, 0] - 5.0 * tri.vertices[:, 1]
    g = _face_gradient_sq(tri, u)
    assert g[0] == pytest.approx(9.0 + 25.0, rel=1e-15)


def test_coordinate_gradient_identity_exactly_two(torus64, sphere4):
    for m in (torus64, sphere4):
        vals = coordinate_gradient_identity(m)
        assert vals.shape == (m.face_count,)
        assert np.max(np.abs(vals - 2.0)) < 1e-12


def test_coordinate_gradient_identity_holds_off_the_sphere(torus32):
    # The identity is the trace of the projection onto each face plane, so
    # it holds on any flat triangle in R^4: 30% noise on every coordinate,
    # with no projection back onto the sphere, leaves it at rounding.
    rng = np.random.default_rng(30)
    noisy = torus32.vertices * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, torus32.vertices.shape))
    assert np.max(np.abs(np.linalg.norm(noisy, axis=1) - 1.0)) > 0.2
    vals = coordinate_gradient_identity(TriMesh(noisy, torus32.faces))
    assert np.max(np.abs(vals - 2.0)) < 1e-12


def test_coordinate_gradient_identity_bit_equals_coordinate_sum(torus32, sphere2):
    for m in (torus32, sphere2):
        total = np.zeros(m.face_count)
        for i in range(4):
            total += _face_gradient_sq(m, m.vertices[:, i])
        assert np.array_equal(coordinate_gradient_identity(m), total)


def test_mean_curvature_vanishes_on_minimal_surfaces(torus64, ops64):
    # On the torus grid S x = 2 m_L x up to rounding, so the discrete
    # mean-curvature vector vanishes and W is the lumped area.
    area = float(ops64.mass_lumped.sum())
    assert willmore_energy(torus64, ops64) == pytest.approx(area, rel=1e-15)
    # On the sphere the tangent part is discretization error: positive,
    # shrinking at least 4x per subdivision (measured 4.9x and 6.7x).
    excess = []
    for s in (2, 3, 4):
        m = mesh.generate_sphere(s)
        ops = assemble(m)
        excess.append(willmore_energy(m, ops) - float(ops.mass_lumped.sum()))
    assert min(excess) > 0.0
    assert excess[1] < excess[0] / 4.0 and excess[2] < excess[1] / 4.0


def test_mean_curvature_detects_non_minimal_surface():
    # Small sphere x_4 = 1/2 inside S^3: radius sqrt(3)/2, |H| = 1/sqrt(3),
    # so W = (1 + 1/3) area = 4 pi, the Willmore energy of every round
    # 2-sphere in S^3 (Weiner 1978), while a minimal surface has W = area.
    base = mesh.generate_sphere(3)
    verts = np.concatenate(
        [math.sqrt(3.0) / 2.0 * base.vertices[:, :3], np.full((base.vertex_count, 1), 0.5)],
        axis=1,
    )
    control = TriMesh(verts, base.faces)
    ops = assemble(control)
    w = willmore_energy(control, ops)
    assert w == pytest.approx(4.0 * math.pi, rel=0.01)
    assert w / float(ops.mass_lumped.sum()) > 1.3  # nowhere near minimal


def test_willmore_energy(torus64, ops64, sphere4, ops_s4):
    w_t = willmore_energy(torus64, ops64)
    assert w_t == pytest.approx(19.7233595506816, rel=1e-12)
    assert w_t == pytest.approx(2.0 * math.pi**2, rel=2e-3)
    w_s = willmore_energy(sphere4, ops_s4)
    assert w_s == pytest.approx(12.551397895463221, rel=1e-12)
    assert w_s == pytest.approx(4.0 * math.pi, rel=2e-3)


def test_takahashi_residual(ops64, torus64, ops_s4, sphere4):
    res_t = max(
        takahashi_residual(ops64, torus64.vertices[:, i], 2) for i in range(4)
    )
    assert res_t == pytest.approx(0.00160638082079, rel=1e-9)
    res_s = max(
        takahashi_residual(ops_s4, sphere4.vertices[:, i], 2) for i in range(3)
    )
    assert res_s == pytest.approx(0.00893351403971, rel=1e-9)
    assert takahashi_residual(ops64, np.zeros(ops64.dim), 2) == 0.0
    with pytest.raises(ValueError):
        takahashi_residual(ops64, torus64.vertices[:, 0], 0)


def test_takahashi_residual_shrinks_under_refinement():
    values = []
    for r in (16, 32):
        m = mesh.generate_torus(r)
        ops = assemble(m)
        values.append(takahashi_residual(ops, m.vertices[:, 0], 2))
    assert values[1] < 0.5 * values[0]


def test_nodal_function_validation(torus16):
    with pytest.raises(ValueError, match="nodal array has length"):
        fem.rayleigh(assemble(torus16), np.ones(torus16.vertex_count - 1))
    with pytest.raises(ValueError):
        fem.rayleigh(assemble(torus16), np.full(torus16.vertex_count, np.nan))
    with pytest.raises(ValueError, match="^expected a one-dimensional nodal value array$"):
        fem.rayleigh(assemble(torus16), np.ones((torus16.vertex_count, 1)))
