"""Piecewise-linear FEM operators on embedded triangle meshes.

Stiffness is the cotangent Laplacian assembled face by face from the
embedded geometry; mass is the consistent P1 matrix (A/6 diagonal, A/12
off-diagonal contributions per face).  The lumped mass vector is the row
sum of the consistent matrix and is used wherever an inverse is needed.

All quadratic-form helpers take a plain value array of length
``vertex_count``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import MeshError, TriMesh, face_geometry

__all__ = [
    "FemOperators",
    "assemble",
    "coordinate_function",
    "rayleigh",
    "project_mean_zero",
    "willmore_energy",
    "takahashi_residual",
    "coordinate_gradient_identity",
]

# A face whose area falls below this is treated as degenerate: the cotangent
# weights blow up and the element matrices lose meaning.
_AREA_FLOOR = 1e-14

_ZERO_NORM_TOL = 1e-14


@dataclass(frozen=True)
class FemOperators:
    """Assembled stiffness/mass pair for one mesh.

    The dimension and the lumped mass are read from the two matrices, so a
    pencil built or replaced by hand cannot carry ones that disagree.
    """

    stiffness: scipy.sparse.csr_matrix
    mass: scipy.sparse.csr_matrix

    @property
    def dim(self) -> int:
        return self.stiffness.shape[0]

    @cached_property
    def mass_lumped(self) -> np.ndarray:
        """Row sums of the consistent mass matrix."""
        return np.asarray(self.mass.sum(axis=1)).ravel()


def _values(u, dim=None):
    v = np.asarray(u, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a one-dimensional nodal value array")
    if dim is not None and v.shape[0] != dim:
        raise ValueError("nodal array has length %d, expected %d" % (v.shape[0], dim))
    if not np.all(np.isfinite(v)):
        raise ValueError("nodal values contain non-finite entries")
    return v


def _check_areas(areas):
    """Raise :class:`MeshError` naming the first face of (numerically) zero
    area."""
    bad = np.nonzero(areas < _AREA_FLOOR)[0]
    if bad.size:
        raise MeshError("degenerate face %d has zero area" % bad[0])


def assemble(mesh: TriMesh) -> FemOperators:
    """Build cotangent stiffness and consistent mass for ``mesh``.

    Raises :class:`MeshError` naming the first degenerate face if any
    triangle has (numerically) zero area.

    The Gram entries at each face corner come from ``face_geometry``.  One
    stable sort of the (row, col) pairs gives the shared CSR pattern, and
    each entry's face terms are summed in the order the faces come in.
    """
    from scipy.sparse import csr_matrix

    F = mesh.faces
    nv = mesh.vertex_count
    corners, areas = face_geometry(mesh.vertices, F)
    _check_areas(areas)
    half_cot = 0.5 * np.concatenate([
        uv / np.sqrt(np.maximum(uu * vv - uv * uv, _AREA_FLOOR**2))
        for uu, vv, uv in corners
    ])
    # Each array is dropped once it is used: the pattern below sets the peak.
    del corners

    # S and M share one sparsity pattern: both directions of every face
    # edge (the edges opposite vertex 0, 1, 2 in turn) plus the diagonal.
    tail = np.concatenate([F[:, 1], F[:, 2], F[:, 0]]).astype(np.int32)
    head = np.concatenate([F[:, 2], F[:, 0], F[:, 1]]).astype(np.int32)
    diag = np.arange(nv, dtype=np.int32)
    key = np.concatenate([tail, head, diag]).astype(np.int64)
    key *= nv
    key += np.concatenate([head, tail, diag])
    del tail, head
    order = np.argsort(key, kind="stable").astype(np.int32)
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    slot = np.cumsum(first, dtype=np.int32)
    slot -= 1
    pattern = key[first]
    del key, first
    rows = (pattern // nv).astype(np.int32)
    indices = (pattern % nv).astype(np.int32)
    del pattern
    indptr = np.zeros(nv + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=nv), out=indptr[1:])
    diag_slot = np.flatnonzero(indices == rows)

    def summed(edge_terms):
        # the diagonal's terms are zeros, replaced below
        terms = np.concatenate(edge_terms + [np.zeros(nv)])[order]
        return np.bincount(slot, terms, minlength=indices.size)

    s_data = summed([-half_cot] * 2)
    s_data[diag_slot] = -np.bincount(rows, s_data, minlength=nv)
    m_data = summed([areas / 12.0] * 6)
    m_data[diag_slot] = np.bincount(F.ravel(), np.repeat(areas / 6.0, 3),
                                    minlength=nv)
    stiffness = csr_matrix((s_data, indices, indptr), shape=(nv, nv))
    mass = csr_matrix((m_data, indices, indptr), shape=(nv, nv))
    return FemOperators(stiffness=stiffness, mass=mass)


def coordinate_function(mesh: TriMesh, index: int) -> np.ndarray:
    """Restriction of the ambient coordinate ``index`` (1-based) to the mesh."""
    if not 1 <= index <= mesh.vertices.shape[1]:
        raise ValueError("coordinate index must be in 1..%d" % mesh.vertices.shape[1])
    return mesh.vertices[:, index - 1].copy()


def rayleigh(ops: FemOperators, u) -> float:
    """Rayleigh quotient u'Su / u'Mu.  Rejects (numerically) zero functions."""
    v = _values(u, ops.dim)
    num = float(v @ (ops.stiffness @ v))
    den = float(v @ (ops.mass @ v))
    if den <= _ZERO_NORM_TOL * float(v @ v):
        raise ValueError("Rayleigh quotient of a numerically zero function")
    return num / den


def project_mean_zero(ops: FemOperators, u):
    """Remove the M-weighted mean: w = u - (1'Mu / 1'M1) 1."""
    v = _values(u, ops.dim)
    ones = np.ones(ops.dim)
    shift = float(ones @ (ops.mass @ v)) / float(ones @ (ops.mass @ ones))
    return v - shift


def willmore_energy(mesh: TriMesh, ops: FemOperators) -> float:
    """Integral of (1 + |H|^2) against the lumped mass.

    Applies L x = -(lumped mass)^{-1} S x to the coordinate columns and
    forms w = (L x + 2 x) / 2.  For a surface in the unit 3-sphere the
    smooth counterpart of w is the mean curvature vector, which is tangent
    to the sphere, so |H| is the length of w_T = w - (w.x) x; no normal
    field is needed.  The radial part of w is pure discretization error.
    """
    x = mesh.vertices
    w = 0.5 * (2.0 * x - (ops.stiffness @ x) / ops.mass_lumped[:, None])
    w -= np.einsum("ij,ij->i", w, x)[:, None] * x
    return float(np.sum((1.0 + np.einsum("ij,ij->i", w, w)) * ops.mass_lumped))


def takahashi_residual(ops: FemOperators, u, n: int) -> float:
    """Relative eigenfunction residual ||S u - n M u|| / (n ||u||_M).

    The residual norm is the lumped-mass dual norm sqrt(sum r_i^2 / m_i),
    so the report is scale invariant and mesh-size consistent.  A function
    that vanishes identically satisfies the identity trivially and reports
    zero.
    """
    if n <= 0:
        raise ValueError("n must be a positive integer")
    v = _values(u, ops.dim)
    mnorm_sq = float(v @ (ops.mass @ v))
    if mnorm_sq <= _ZERO_NORM_TOL * max(float(v @ v), 1.0):
        return 0.0
    r = ops.stiffness @ v - n * (ops.mass @ v)
    dual = float(np.sum(r * r / ops.mass_lumped))
    return float(np.sqrt(dual) / (n * np.sqrt(mnorm_sq)))


def _gradient_sq(faces, gram, v) -> np.ndarray:
    """Per-face squared gradient norm of the P1 interpolant of ``v``, from
    the Gram entries (uu, vv, uv) at corner 0."""
    uu, vv, uv = gram
    d1 = v[faces[:, 1]] - v[faces[:, 0]]
    d2 = v[faces[:, 2]] - v[faces[:, 0]]
    det = uu * vv - uv * uv
    a = (vv * d1 - uv * d2) / det
    b = (uu * d2 - uv * d1) / det
    return a * a * uu + 2.0 * a * b * uv + b * b * vv


def coordinate_gradient_identity(mesh: TriMesh) -> np.ndarray:
    """Per-face sum of |grad x_i|^2 over all ambient coordinates.

    On any surface embedded in a round sphere the tangential gradients of
    the ambient coordinates satisfy sum_i |grad x_i|^2 = dim(surface), here
    2.  For piecewise-linear interpolation the identity is exact face by
    face: the gradient of each coordinate is the projection of a standard
    basis vector onto the face plane, and the squared norms sum to the
    trace of that projection.  That holds on every nondegenerate flat
    triangle in R^4, on a sphere or not, so the value says nothing about
    the mesh and no verify check reads it.  It is kept because the
    benchmark's tracer wraps it.
    """
    corners, areas = face_geometry(mesh.vertices, mesh.faces)
    _check_areas(areas)
    total = np.zeros(mesh.face_count)
    for x in mesh.vertices.T:
        total += _gradient_sq(mesh.faces, corners[0], x)
    return total
