"""Tests for the deterministic generalized eigensolver and index counting."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from eigenmin import canonical, eigen, fem, mesh
from eigenmin.eigen import NonConvergence, SolverError, morse_index, solve_lowest


def _ops(S, M):
    """The pencil (S, M) as the FemOperators that the solvers take."""
    S, M = sp.csr_matrix(S, dtype=float), sp.csr_matrix(M, dtype=float)
    return fem.FemOperators(stiffness=S, mass=M)


def _diag_pencil():
    return _ops(sp.diags([0.0, 1.0, 2.0]), sp.identity(3))


def test_dense_diagonal_example_exact():
    sp = solve_lowest(_diag_pencil(), 3, deflate_constants=False)
    assert sp.eigenvalues == pytest.approx([0.0, 1.0, 2.0], abs=1e-14)
    assert sp.iterations == 1
    assert not sp.deflated
    assert np.all(sp.residuals <= sp.tolerance)


def test_input_validation(ops64):
    diag = _diag_pencil()
    with pytest.raises(ValueError):
        solve_lowest(diag, 0)
    with pytest.raises(ValueError):
        solve_lowest(diag, 3, tol=1e-2)
    with pytest.raises(ValueError):
        solve_lowest(diag, 3, tol=1e-13)
    with pytest.raises(ValueError):
        solve_lowest(diag, 4, deflate_constants=False)
    # ARPACK computes fewer Ritz pairs than the dimension: k, the deflated
    # mode and the guard pairs must stay below it.
    with pytest.raises(ValueError, match="k=4093 needs 4096 Ritz pairs"):
        solve_lowest(ops64, ops64.dim - 3)
    with pytest.raises(ValueError, match="^stiffness and mass must be square and same shape$"):
        solve_lowest(_ops(sp.identity(3), sp.identity(4)), 2)
    # Both paths reject a negative seed.
    for ops in (diag, ops64):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            solve_lowest(ops, 2, seed=-1)


def test_indefinite_mass_rejected():
    S = sp.identity(3, format="csr")
    M = sp.diags([1.0, -1.0, 1.0]).tocsr()
    with pytest.raises(ValueError, match="positive definite"):
        solve_lowest(_ops(S, M), 2)
    # A positive diagonal does not make M definite; the dense solve finds out.
    M = sp.csr_matrix([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        solve_lowest(_ops(S, M), 2)


def test_dense_path_torus(ops16):
    sp = solve_lowest(ops16, 6)
    assert sp.deflated
    assert sp.iterations == 1
    lam = sp.eigenvalues
    assert lam[0] == pytest.approx(2.05206812841792, rel=1e-10)
    # Fourfold first cluster, then the level-4 pair.
    assert np.max(np.abs(lam[:4] - lam[0])) < 1e-9
    assert lam[4] == pytest.approx(2.0 * lam[0], rel=1e-9)


def test_iterative_path_torus(torus_spectrum):
    sp = torus_spectrum
    assert sp.deflated
    assert sp.iterations > 1
    assert sp.eigenvalues[0] == pytest.approx(2.00321534313721, rel=1e-9)
    assert np.max(np.abs(sp.eigenvalues[:4] - sp.eigenvalues[0])) < 1e-6
    assert np.all(sp.residuals <= sp.tolerance)


def test_iterative_path_sphere(sphere_spectrum):
    sp = sphere_spectrum
    lam = sp.eigenvalues
    assert lam[0] == pytest.approx(2.00288535095037, rel=1e-9)
    assert np.max(np.abs(lam[:3] - lam[0])) < 1e-6
    assert lam[3] == pytest.approx(6.0, rel=1e-2)
    assert np.all(sp.residuals <= sp.tolerance)


def test_residual_certificate_definition(ops64, torus_spectrum):
    # Residuals are ||S v - lambda M v|| / ||M v||, checked independently.
    sp = torus_spectrum
    for j in range(sp.eigenvalues.size):
        v = sp.eigenvectors[:, j]
        lam = sp.eigenvalues[j]
        num = np.linalg.norm(ops64.stiffness @ v - lam * (ops64.mass @ v))
        den = np.linalg.norm(ops64.mass @ v)
        assert num / den <= sp.tolerance * 1.0000001
        assert num / den == pytest.approx(sp.residuals[j], rel=1e-6, abs=1e-12)


def test_mass_orthonormality(ops64, torus_spectrum, ops_s4, sphere_spectrum):
    for ops, sp in ((ops64, torus_spectrum), (ops_s4, sphere_spectrum)):
        V = sp.eigenvectors
        gram = V.T @ (ops.mass @ V)
        assert np.max(np.abs(gram - np.eye(V.shape[1]))) < 1e-8


def test_deflation_suppresses_constant_mode(ops16):
    undeflated = solve_lowest(ops16, 6, deflate_constants=False)
    assert undeflated.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
    assert not undeflated.deflated
    deflated = solve_lowest(ops16, 5)
    assert deflated.eigenvalues == pytest.approx(undeflated.eigenvalues[1:], abs=1e-8)


def test_determinism_same_call_twice(ops64):
    a = solve_lowest(ops64, 4)
    b = solve_lowest(ops64, 4)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    assert a.iterations == b.iterations


def test_seed_changes_start_block_not_eigenvalues(ops32):
    a = solve_lowest(ops32, 3, seed=0)
    b = solve_lowest(ops32, 3, seed=12345)
    assert np.abs(a.eigenvalues - b.eigenvalues).max() < 10.0 * a.tolerance


def test_permutation_invariance(ops32):
    ref = solve_lowest(ops32, 4, tol=1e-9)
    rng = np.random.default_rng(3)
    perm = rng.permutation(ops32.dim)
    P = sp.csr_matrix(
        (np.ones(ops32.dim), (np.arange(ops32.dim), perm)), shape=(ops32.dim, ops32.dim)
    )
    per = solve_lowest(_ops(P @ ops32.stiffness @ P.T, P @ ops32.mass @ P.T), 4,
                       tol=1e-9)
    assert np.abs(ref.eigenvalues - per.eigenvalues).max() < 10.0 * 1e-9


def test_nonconvergence_names_the_pairs_arpack_converged(ops64, monkeypatch):
    # One ARPACK restart converges only part of the 8 Ritz pairs (6 wanted,
    # 2 guards); the error says how many, and the work spent.
    monkeypatch.setattr(eigen, "_MAXITER", 1)
    with pytest.raises(NonConvergence, match=r"^ARPACK converged [1-7] of 8 Ritz"
                       r" pairs after \d+ operator applications$") as info:
        solve_lowest(ops64, 6, deflate_constants=False)
    assert isinstance(info.value, SolverError)


@pytest.mark.parametrize("name, work", [
    ("ops16", r"the dense solve"),
    ("ops32", r"\d+ operator applications"),
], ids=["dense", "arpack"])
def test_one_residual_certificate_on_both_paths(request, name, work):
    # Scaled by 1e6, the pencil's residuals grow past tol=1e-8.  Torus 16
    # takes the dense path and torus 32 ARPACK; both raise with a message
    # that names the work of its path.  The same pencil certifies at
    # tol=1e-4, with the six sorted, deflated pairs and their residuals
    # recomputed.
    ops = request.getfixturevalue(name)
    S, M = 1e6 * ops.stiffness, ops.mass
    scaled = _ops(S, M)
    with pytest.raises(NonConvergence, match=r"^residual \S+ above tolerance"
                       r" 1\.0e-08 after %s$" % work):
        solve_lowest(scaled, 6)
    spectrum = solve_lowest(scaled, 6, tol=1e-4)
    assert spectrum.eigenvalues.size == 6
    np.testing.assert_allclose(spectrum.eigenvalues,
                               1e6 * solve_lowest(ops, 6).eigenvalues, rtol=1e-9)
    recomputed = [np.linalg.norm(S @ v - lam * (M @ v)) / np.linalg.norm(M @ v)
                  for lam, v in zip(spectrum.eigenvalues, spectrum.eigenvectors.T)]
    np.testing.assert_allclose(spectrum.residuals, recomputed, rtol=1e-12)
    # The pairs do not depend on tol: they certify at their worst residual
    # and at no tolerance below it.
    worst = spectrum.residuals.max()
    assert worst > 1e-8
    at_worst = solve_lowest(scaled, 6, tol=worst)
    assert np.array_equal(at_worst.eigenvalues, spectrum.eigenvalues)
    with pytest.raises(NonConvergence, match="residual %.3e above" % worst):
        solve_lowest(scaled, 6, tol=worst / 2)


@pytest.mark.parametrize("subdiv, k, seed", [(3, 5, 0), (3, 4, 7), (3, 6, 9),
                                             (4, 6, 10)])
def test_last_pair_inside_a_cluster_certifies(subdiv, k, seed):
    # The last wanted pair sits inside the 5-fold level-6 cluster of the
    # sphere; ARPACK's last pairs converge slowest, so without guard pairs
    # beyond the wanted ones these stop just above the certificate.
    ops = fem.assemble(mesh.generate_sphere(subdiv))
    spectrum = solve_lowest(ops, k, seed=seed)
    assert spectrum.eigenvalues.size == k
    assert np.all(spectrum.residuals <= spectrum.tolerance)


def test_sparse_path_solves_beyond_a_quarter_of_the_dimension():
    # Sphere 3 has dim 642, just above the dense cutoff; 161 > 642 / 4.
    ops = fem.assemble(mesh.generate_sphere(3))
    spectrum = solve_lowest(ops, 161)
    assert spectrum.eigenvalues.size == 161
    assert spectrum.iterations > 1
    assert np.all(spectrum.residuals <= spectrum.tolerance)


def test_lowest_shift_lies_between_levels_only_for_nine_pairs():
    # Deflated k = 6 with two guards makes 9 Ritz pairs: the exact
    # eigenvalues in [0, 6] on both surfaces.  Other k, an undeflated
    # solve, a tolerance below the floor at 3 and an unknown surface keep
    # -1.  On S^3 (levels 0, 3 x4, 8) k = 2 fills [0, 6] too, but 3 is a
    # level there.
    for surface in (canonical.clifford_torus(), canonical.equatorial_sphere(2)):
        assert [eigen._lowest_shift(surface, k, 1e-8) for k in range(1, 10)] == (
            [-1.0] * 5 + [3.0] + [-1.0] * 3)
        assert eigen._lowest_shift(surface, 6, 1e-8) == 3.0
        assert eigen._lowest_shift(surface, 6, 9.9e-9) == -1.0
        assert eigen._lowest_shift(surface, 6, 1e-8, deflate_constants=False) == -1.0
    assert eigen._lowest_shift(None, 6, 1e-8) == -1.0
    assert eigen._lowest_shift(canonical.equatorial_sphere(3), 2, 1e-8) == -1.0


@pytest.mark.parametrize("surface, level", [
    ("torus", 25), ("torus", 32), ("torus", 64), ("torus", 80),
    ("sphere", 3), ("sphere", 4), ("sphere", 5),
])
def test_shift_between_levels_gives_the_lowest_pairs(surface, level):
    # About 3 the Ritz values nearest the shift are the lowest ones, with
    # fewer applications than about -1; at these seeds the residuals stay
    # an order below the 1e-8 floor of the shift.
    m = mesh.generate_torus(level) if surface == "torus" else mesh.generate_sphere(level)
    ops = fem.assemble(m)
    assert eigen._lowest_shift(m.surface, 6, 1e-8) == 3.0
    below = solve_lowest(ops, 6, tol=1e-9)
    for seed in range(3):
        between = solve_lowest(ops, 6, seed=seed, surface=m.surface)
        np.testing.assert_allclose(between.eigenvalues, below.eigenvalues,
                                   rtol=1e-9, atol=0, err_msg="seed %d" % seed)
        assert np.all(between.residuals <= 1e-9)
        assert between.iterations < below.iterations


def test_shift_that_misses_the_constant_raises(ops64, monkeypatch):
    # At k = 4 the 7 Ritz values nearest 3 are the lambda_1 cluster and
    # three of the level-4 one, without the constant: deflation would drop
    # an eigenvector of the cluster, so the solve raises instead.
    monkeypatch.setattr(eigen, "_lowest_shift", lambda *args: 3.0)
    with pytest.raises(NonConvergence, match=r"^no Ritz pair is the constant mode"
                       r" \(largest M-cosine with it \S+\) after \d+ operator"
                       r" applications$"):
        solve_lowest(ops64, 4, surface=canonical.clifford_torus())


def test_morse_index_torus(ops64):
    # Discrete eigenvalues lie above the exact ones: the level-4 cluster
    # sits just above the potential 4 and is not counted.
    assert morse_index(ops64, 4.0) == 5


def test_morse_index_sphere(ops_s4):
    assert morse_index(ops_s4, 2.0) == 1


def test_morse_index_zero_potential(ops16):
    # 0 is always an eigenvalue (the constants); the count there is undefined.
    with pytest.raises(ValueError, match="potential constant must be positive"):
        morse_index(ops16, 0.0)


def test_morse_index_rejects_negative_potential(ops16):
    with pytest.raises(ValueError):
        morse_index(ops16, -1.0)


@pytest.fixture(scope="module")
def dense_spectra(ops16, ops_s2):
    """Pencils by fixture name, each with all its eigenvalues from a dense
    generalized solve, an oracle independent of the factorization."""
    return {name: (ops, scipy.linalg.eigh(ops.stiffness.toarray(),
                                          ops.mass.toarray(), eigvals_only=True))
            for name, ops in (("ops16", ops16), ("ops_s2", ops_s2))}


# Shifts near eigenvalue levels (13 lies 4.5e-3 from one on sphere 2) are
# always tried; the upper bound 400 lies above both pencils' spectra.
@pytest.mark.parametrize("name", ["ops16", "ops_s2"])
@settings(max_examples=40, deadline=None)
@given(c=st.floats(1e-6, 400.0))
@example(c=1.0)
@example(c=2.0)
@example(c=2.5)
@example(c=4.0)
@example(c=6.5)
@example(c=9.0)
@example(c=13.0)
@example(c=30.0)
def test_inertia_count_matches_dense_spectrum(dense_spectra, name, c):
    ops, exact = dense_spectra[name]
    assume(np.min(np.abs(exact - c)) >= 1e-6)
    assert morse_index(ops, c) == np.count_nonzero(exact < c)


@pytest.fixture(scope="module")
def small_tori():
    """Torus pencils by resolution, each with all its eigenvalues from
    scipy.linalg.eigh."""
    pencils = {}
    for n in (5, 7, 8, 10):
        ops = fem.assemble(mesh.generate_torus(n))
        pencils[n] = ops, scipy.linalg.eigh(ops.stiffness.toarray(), ops.mass.toarray(),
                                            eigvals_only=True)
    return pencils


# On pencils this small, ARPACK alone drops a copy of the 4-fold lambda_1
# cluster in some cases (torus 7 deflated at k = 4 for every seed, torus 8
# undeflated at k = 6 for seeds 0 and 2), while every residual stays below
# 1e-13.  The residual certificate cannot see a skipped eigenvalue, so this
# pins the spectra of solve_lowest itself.
@pytest.mark.parametrize("n", [5, 7, 8, 10])
@pytest.mark.parametrize("k", [4, 5, 6, 7])
@pytest.mark.parametrize("deflate", [True, False], ids=["deflated", "undeflated"])
def test_small_torus_spectra_match_dense_eigh(small_tori, n, k, deflate):
    ops, exact = small_tori[n]
    want = exact[1:k + 1] if deflate else exact[:k]
    for seed in range(4):
        got = solve_lowest(ops, k, deflate_constants=deflate, seed=seed)
        np.testing.assert_allclose(got.eigenvalues, want, rtol=1e-10,
                                   atol=1e-10 * want[-1], err_msg="seed %d" % seed)


def _plain_mmd(A):
    return splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


@pytest.mark.parametrize("surface, res, rcm", [
    ("sphere", 3, True), ("sphere", 4, True), ("sphere", 5, True),
    ("torus", 32, False), ("torus", 64, False),
])
def test_factor_orders_by_rcm_only_where_the_envelope_shrinks(surface, res, rcm):
    # The icosphere's vertex numbering has a wide envelope that RCM shrinks;
    # the torus grid's is already narrow, so its factor is plain MMD's.
    m = mesh.generate_sphere(res) if surface == "sphere" else mesh.generate_torus(res)
    ops = fem.assemble(m)
    A = ops.stiffness + ops.mass
    factor = eigen._factor(A)
    natural = np.arange(ops.dim)
    assert np.array_equal(factor.order, natural) != rcm
    assert (eigen._envelope(A, factor.order) < eigen._envelope(A, natural)) == rcm
    plain = _plain_mmd(A)
    nnz = factor.lu.L.nnz + factor.lu.U.nnz
    if rcm:
        assert nnz <= plain.L.nnz + plain.U.nnz
    else:
        assert nnz == plain.L.nnz + plain.U.nnz
        assert np.array_equal(factor.lu.U.diagonal(), plain.U.diagonal())
    b = np.random.default_rng(0).standard_normal(ops.dim)
    x = factor.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_morse_index_invariant_under_vertex_renumbering(ops32):
    # A random numbering has a wide envelope, so the torus pencil goes
    # through the RCM branch; the inertia of P A P' is that of A.
    perm = np.random.default_rng(5).permutation(ops32.dim)
    S = ops32.stiffness[perm][:, perm]
    M = ops32.mass[perm][:, perm]
    assert not np.array_equal(eigen._factor(S + M).order, np.arange(ops32.dim))
    for c in (2.0, 4.0, 9.0):
        assert morse_index(_ops(S, M), c) == morse_index(ops32, c)


def _stub_factor(monkeypatch, perm_r, perm_c, pivots):
    """Make every factorization return a SuperLU stand-in with the given
    row and column permutations and diagonal of U."""
    lu = SimpleNamespace(perm_r=np.array(perm_r), perm_c=np.array(perm_c),
                         U=sp.diags(pivots))
    monkeypatch.setattr(eigen, "_factor",
                        lambda A: eigen._Factor(lu, np.arange(A.shape[0])))


def test_morse_index_rejects_a_factor_that_left_the_diagonal(monkeypatch):
    _stub_factor(monkeypatch, [1, 0, 2], [0, 1, 2], [-1.0, 1.0, 2.0])
    with pytest.raises(SolverError, match=r"S - 1\.5 M left the diagonal"):
        morse_index(_diag_pencil(), 1.5)


def test_morse_index_does_not_count_a_zero_pivot(monkeypatch):
    # A zero pivot is an eigenvalue at the shift, not below it.
    _stub_factor(monkeypatch, [2, 0, 1], [2, 0, 1], [-1.0, 0.0, 2.0])
    assert morse_index(_diag_pencil(), 1.0) == 1


def test_morse_index_computes_no_eigenpairs(monkeypatch, ops32):
    def forbidden(*args, **kwargs):
        raise AssertionError("morse_index called solve_lowest")

    monkeypatch.setattr(eigen, "solve_lowest", forbidden)
    assert morse_index(ops32, 4.0) == 5


def test_spectrum_is_frozen(torus_spectrum):
    with pytest.raises(Exception):
        torus_spectrum.eigenvalues = np.zeros(1)
