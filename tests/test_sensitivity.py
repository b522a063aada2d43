"""The checks that each operator mutation must fail, at the default levels.

Each row perturbs the pencil of every level by patching ``verify.assemble``
and names, per surface, the exact set of check ids that ``run_all`` then
fails.  A change that makes a check blind to a mutation removes an id from
a set and fails here, and so does one that makes a check see more.  This is
mutation analysis applied to the verifier (DeMillo, Lipton & Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978).
"""

import dataclasses

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
