"""The checks that each perturbation must fail, at the default levels, and
the transformations that must change no verdict.

Each mutation row perturbs the pencil of every level by patching
``verify.assemble`` and names, per surface, the exact set of check ids that
``run_all`` then fails.  Each rescaled-torus row puts the torus grid on a
flat torus of S^3 that is not minimal, by patching ``verify.generate``, and
names the ids it fails.  A change that makes a check blind to a
perturbation removes an id from a set and fails here, and so does one that
makes a check see more.  This is mutation analysis applied to the verifier
(DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE Computer
11(4), 1978).

The invariance rows move every mesh by an isometry or a relabelling, again
by patching ``verify.generate``.  The surface stays the same, so every
verdict must stay the same and every value agree to rounding: metamorphic
testing (Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Comput. Surv. 51(1), 2018).
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from eigenmin import canonical, verify


def _scaled(name, factor):
    return lambda ops: dataclasses.replace(ops, **{name: getattr(ops, name) * factor})


def _negated_pair(ops):
    """S with vertex 5's entry for its first (lowest-numbered) neighbour
    negated, on both sides of the diagonal."""
    S = ops.stiffness
    j = min(c for c in S.indices[S.indptr[5]:S.indptr[6]] if c != 5)
    S = S.tolil(copy=True)
    S[5, j], S[j, 5] = -S[5, j], -S[j, 5]
    return dataclasses.replace(ops, stiffness=S.tocsr())


def _diagonal_mass(ops):
    return dataclasses.replace(ops, mass=sp.diags(ops.mass.diagonal(), format="csr"))


# mutation: (perturbation, torus 16,32,64 fails, sphere 2,3,4 fails)
_ROWS = {
    "unperturbed": (lambda ops: ops, set(), set()),
    "M*(1+5e-3)": (
        _scaled("mass", 1 + 5e-3),
        {"C1-order", "C3-trend", "C9-index", "C11-order"},
        {"C2-order", "C9-index", "C11-order"},
    ),
    "M*(1+2e-2)": (
        _scaled("mass", 1 + 2e-2),
        {"C1-lambda1", "C1-cluster", "C1-order", "C3-trend", "C5-limit", "C9-index",
         "C10-eigensum", "C11-identity", "C11-order"},
        {"C2-lambda1", "C2-cluster", "C2-level2", "C2-order", "C5-limit", "C9-index",
         "C11-identity", "C11-order"},
    ),
    "S*(1+5e-3)": (
        _scaled("stiffness", 1 + 5e-3),
        {"C1-order", "C5-limit", "C11-order"},
        {"C2-order", "C5-limit", "C11-order"},
    ),
    "S-pair-negated": (
        _negated_pair,
        {"C1-cluster", "C3-residual", "C3-trend", "C5-limit", "C6-willmore",
         "C11-identity", "C11-order"},
        {"C2-cluster", "C3-residual", "C3-trend", "C6-willmore", "C11-identity",
         "C11-order"},
    ),
    "M-diagonal": (
        _diagonal_mass,
        {"C1-lambda1", "C1-cluster", "C1-order", "C3-residual", "C5-limit",
         "C6-willmore", "C9-index", "C10-eigensum", "C11-identity", "C11-order"},
        {"C2-lambda1", "C2-cluster", "C2-level2", "C2-order", "C3-residual",
         "C5-limit", "C6-willmore", "C11-identity", "C11-order"},
    ),
}


@pytest.mark.parametrize("torus", [True, False], ids=["torus", "sphere"])
@pytest.mark.parametrize("mutation", list(_ROWS))
def test_mutation_fails_exactly_its_checks(mutation, torus, monkeypatch):
    perturb, torus_fails, sphere_fails = _ROWS[mutation]
    assemble = verify.assemble
    monkeypatch.setattr(verify, "assemble", lambda mesh: perturb(assemble(mesh)))
    surface = canonical.clifford_torus() if torus else canonical.equatorial_sphere(2)
    report = verify.run_all(surface)
    assert {c.id for c in report.checks if not c.passed} == (
        torus_fails if torus else sphere_fails)


def _on_torus_of_radius(r):
    """The torus grid carried onto S^1(r) x S^1(sqrt(1 - r^2)) in S^3.  That
    torus is flat and is minimal only at r = 1/sqrt(2); its exact lambda_1
    is min(1/r^2, 1/(1 - r^2))."""
    scale = math.sqrt(2.0) * np.repeat([r, math.sqrt(1.0 - r * r)], 2)
    return lambda mesh, level: dataclasses.replace(mesh, vertices=mesh.vertices * scale)


def _patch_generate(monkeypatch, transform):
    """Make run_all mesh every level as ``transform(mesh, level)``."""
    generate = verify.generate
    monkeypatch.setattr(verify, "generate",
                        lambda surface, level: transform(generate(surface, level), level))


_C1_C11 = {"C1-lambda1", "C1-cluster", "C1-order", "C3-residual", "C5-limit",
           "C10-eigensum", "C11-identity", "C11-order"}

# r: torus 16,32,64 fails
_RESCALED = {
    0.6: _C1_C11 | {"C6-willmore", "area"},
    0.69: _C1_C11,
    0.7: _C1_C11 - {"C3-residual"},
    0.703: _C1_C11 - {"C3-residual", "C1-lambda1"},
    0.705: {"C1-order", "C5-limit", "C11-order"},
    0.5 ** 0.5: set(),
}


@pytest.mark.parametrize("r", list(_RESCALED), ids=lambda r: "%.4g" % r)
def test_rescaled_torus_fails_exactly_its_checks(r, monkeypatch):
    _patch_generate(monkeypatch, _on_torus_of_radius(r))
    report = verify.run_all(canonical.clifford_torus())
    assert {c.id for c in report.checks if not c.passed} == _RESCALED[r]


def _rotated(mesh, level):
    """The mesh turned by a rotation of R^4 (torus) or of R^3 (sphere, whose
    x_4 stays 0), drawn from the level's seed."""
    dim = 4 if mesh.surface.kind == "clifford" else 3
    q, r = np.linalg.qr(np.random.default_rng(level).normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    q[:, 0] *= np.sign(np.linalg.det(q))
    rotation = np.eye(4)
    rotation[:dim, :dim] = q
    return dataclasses.replace(mesh, vertices=mesh.vertices @ rotation.T)


def _renumbered(mesh, level):
    """The mesh with its vertices in a random order drawn from the level's
    seed."""
    order = np.random.default_rng(level).permutation(mesh.vertex_count)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return dataclasses.replace(mesh, vertices=mesh.vertices[order],
                               faces=rank[mesh.faces])


def _corners_cycled(mesh, level):
    """The mesh with each face's corners cycled, which keeps its orientation."""
    return dataclasses.replace(mesh, faces=mesh.faces[:, [1, 2, 0]])


# The values that move by more than 1e-9 relative, and are held to 1e-6
# relative or 1e-15 absolute instead: C4-mean-zero and C5-sup-bound are
# rounding-level quantities (below 1e-16 here; C5-sup-bound is an excess
# clipped at zero), and under rotation the sweep's base point stays fixed
# in coordinates while the mesh turns, which moves C5-limit by up to 4e-7
# relative.
_LOOSE = {"C4-mean-zero", "C5-sup-bound"}
_INVARIANCE = {
    "rotated": (_rotated, _LOOSE | {"C5-limit"}),
    "renumbered": (_renumbered, _LOOSE),
    "corners-cycled": (_corners_cycled, _LOOSE),
}


@pytest.mark.parametrize("torus", [True, False], ids=["torus", "sphere"])
@pytest.mark.parametrize("transform", list(_INVARIANCE))
def test_invariance_keeps_every_verdict_and_value(transform, torus, monkeypatch,
                                                  request):
    move, loose = _INVARIANCE[transform]
    plain, _ = request.getfixturevalue("torus_report" if torus else "sphere_report")
    _patch_generate(monkeypatch, move)
    surface = canonical.clifford_torus() if torus else canonical.equatorial_sphere(2)
    report = verify.run_all(surface)
    assert [(c.id, c.passed) for c in report.checks] == [
        (c.id, c.passed) for c in plain.checks]
    for moved, still in zip(report.checks, plain.checks):
        rtol, atol = (1e-6, 1e-15) if moved.id in loose else (1e-9, 0)
        np.testing.assert_allclose([moved.measured, moved.expected],
                                   [still.measured, still.expected],
                                   rtol=rtol, atol=atol, err_msg=moved.id)
