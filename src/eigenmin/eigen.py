"""Deterministic low-end eigenpairs of the P1 pencil (S, M).

Only the source of the Ritz pairs depends on the dimension.  Up to 600 it
is one dense generalized solve, which at the default verify levels serves
torus 16 (dim 256) and sphere 2 (dim 162).  Larger problems factor S + M
once (sparse LU with a symmetric ordering and diagonal pivots) and run
shift-invert Lanczos (ARPACK) about sigma = -1 from a fixed seeded start
vector, with two guard pairs beyond the wanted ones.  Everything after
that is shared: the pairs are sorted, the constant mode is deflated by
dropping the eigenvector with the largest mass-weighted mean, the
residuals are recomputed from the matrices, and one certificate applies,
so a Spectrum certifies itself: ||S v - lambda M v|| / ||M v|| <= tolerance
holds for every reported pair, or NonConvergence is raised.

The Morse index needs no eigensolve: by Sylvester's law of inertia the
number of eigenvalues below c > 0 is the number of negative pivots of one
symmetric factorization of S - c M.  The count is exact only away from the
spectrum; a caller that knows where the exact levels lie picks c there.

Every factorization starts from a reverse Cuthill-McKee (RCM) order of the
matrix when that order has a strictly smaller envelope than the given one,
and from the given order otherwise; SuperLU's minimum degree ordering then
runs on that.  The rule reads only the matrix.  It picks RCM on the
icosphere, whose numbering has a wide envelope (sphere 5: 41.9M entries
against 1.37M, and a factor of S + M in 0.054 s instead of 0.59 s), and
keeps the torus grid's order, where RCM would add fill.  The table of
measurements is at ``_factor``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import FemOperators

__all__ = [
    "Spectrum",
    "SolverError",
    "NonConvergence",
    "solve_lowest",
    "morse_index",
]

_DENSE_CUTOFF = 600
# Ritz pairs computed beyond the wanted ones and then discarded.  ARPACK's
# last pairs converge slowest, and a wanted pair inside a degenerate cluster
# can otherwise stop short of the residual certificate.
_GUARD_PAIRS = 2
# Shift of the factored pencil S - sigma M.  S is positive semidefinite and
# M positive definite, so S + M is positive definite and the shift sits
# below the whole spectrum.
_SIGMA = -1.0
# ARPACK restarts before a solve gives up with NonConvergence.
_MAXITER = 3000


class SolverError(RuntimeError):
    """Eigenvalue solve failed structurally."""


class NonConvergence(SolverError):
    """Iteration budget exhausted before the residuals certified.

    Carries the best partial result in the ``spectrum`` attribute.
    """

    def __init__(self, message, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with M-orthonormal eigenvectors and residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    tolerance: float
    iterations: int
    deflated: bool


def _pencil(ops: FemOperators):
    S, M = ops.stiffness, ops.mass
    if S.shape != M.shape or S.shape[0] != S.shape[1]:
        raise ValueError("stiffness and mass must be square and same shape")
    if np.any(M.diagonal() <= 0):
        raise ValueError("mass matrix must be symmetric positive definite")
    return S, M


def _envelope(A, order):
    """Envelope of A with rows and columns taken in ``order``.

    The sum over rows i of i - min{j <= i : a_ij != 0}: the entries a
    profile (envelope) scheme stores for a symmetric factorization (George
    & Liu 1981, ch. 4).
    """
    rank = np.empty(A.shape[0], dtype=np.intp)
    rank[order] = np.arange(A.shape[0])
    first = rank.copy()
    coo = A.tocoo()
    np.minimum.at(first, coo.row, rank[coo.col])
    return int(np.sum(rank - first))


@dataclass(frozen=True)
class _Factor:
    """SuperLU factor ``lu`` of A[order][:, order] that solves with A."""

    lu: object
    order: np.ndarray

    def solve(self, b):
        y = self.lu.solve(b[self.order])
        x = np.empty_like(y)
        x[self.order] = y
        return x

    def negative_pivots(self, shift):
        """Number of eigenvalues below ``shift`` when A = S - shift M.

        Only a factor that kept its diagonal (perm_r == perm_c) is congruent
        to A, so only then do its pivots carry A's inertia.
        """
        if not np.array_equal(self.lu.perm_r, self.lu.perm_c):
            raise SolverError(
                "the factorization of S - %.12g M left the diagonal; its"
                " pivots do not give the inertia" % shift
            )
        return int(np.count_nonzero(self.lu.U.diagonal() < 0))


# MMD_AT_PLUS_A handles the icosphere's vertex numbering badly.  An RCM
# pre-permutation shrinks the envelope there 15 to 60 times and makes the
# factor 5 to 40 times faster.  On the torus grid RCM grows the envelope a
# little and the fill by about 16% (n = 128), so the given order stays.
# One factor of S + M, and one solve with it, on one thread of a 2-vCPU VM:
#
#   pencil      envelope given / RCM   rule picks   factor s        solve ms
#   torus 64         516k / 521k       given        0.018           0.40
#   torus 128       4.16M / 4.18M      given        0.089           2.44
#   sphere 4        2.63M / 0.17M      RCM          0.039 -> 0.008  0.63 -> 0.22
#   sphere 5        41.9M / 1.37M      RCM          0.590 -> 0.054  6.31 -> 2.10
#   sphere 6         670M / 11.0M      RCM          7-15  -> 0.37   -    -> 8.7
#
# (x -> y: plain MMD, then MMD after the rule's order.)
def _factor(A):
    """Sparse LU of the symmetric matrix A with diagonal pivots.

    A is first permuted symmetrically by reverse Cuthill-McKee when that
    strictly shrinks the envelope, and kept in the given order otherwise.
    The ordering is symmetric and no row is exchanged for stability, so when
    the factor's perm_r equals its perm_c it is Q A[p][:, p] Q' = L U with
    U = D L', and the diagonal of U carries the pivots of an LDL'
    factorization congruent to A: by Sylvester's law they have A's inertia.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    from scipy.sparse.linalg import splu

    order = np.arange(A.shape[0])
    rcm = reverse_cuthill_mckee(A, symmetric_mode=True)
    if _envelope(A, rcm) < _envelope(A, order):
        order = rcm
    lu = splu(csc_matrix(A[order][:, order]), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    return _Factor(lu, order)


def _residuals(S, M, vals, vecs):
    res = np.empty(len(vals))
    for i, (lam, v) in enumerate(zip(vals, vecs.T)):
        r = S @ v - lam * (M @ v)
        res[i] = np.linalg.norm(r) / max(np.linalg.norm(M @ v), 1e-300)
    return res


def _ritz_spectrum(S, M, vals, vecs, k, tol, iterations, deflate):
    """Sorted Spectrum of the lowest k Ritz pairs, residuals recomputed.

    Deflation drops the Ritz vector with the largest |1'M v|, the one that
    carries the constant mode.
    """
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    if deflate and vals.size:
        drop = np.argmax(np.abs((M @ np.ones(S.shape[0])) @ vecs))
        keep = np.arange(vals.size) != drop
        vals, vecs = vals[keep], vecs[:, keep]
    vals, vecs = vals[:k], vecs[:, :k]
    return Spectrum(vals, vecs, _residuals(S, M, vals, vecs), tol, iterations,
                    deflate)


def _ritz_pairs(S, M, k, deflate, seed):
    """Ritz pairs of the pencil, the operator applications and, if ARPACK
    stopped short, what it converged.

    Up to ``_DENSE_CUTOFF`` every pair comes from one dense generalized
    solve, counted as one application.  Above it, the k wanted pairs, the
    constant mode if deflated and the guard pairs come from shift-invert
    ARPACK about ``_SIGMA`` with one factor of S - sigma M, from a start
    vector fixed by ``seed``.
    """
    dim = S.shape[0]
    if dim <= _DENSE_CUTOFF:
        from scipy.linalg import eigh

        try:
            return (*eigh(S.toarray(), M.toarray()), 1, None)
        except np.linalg.LinAlgError:
            raise ValueError("mass matrix must be symmetric positive definite")
    wanted = k + bool(deflate) + _GUARD_PAIRS
    if wanted >= dim:
        raise ValueError("k=%d needs %d Ritz pairs; ARPACK computes fewer"
                         " than dim=%d" % (k, wanted, dim))
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    lu = _factor(S - _SIGMA * M)
    applications = 0

    def apply_inverse(x):
        nonlocal applications
        applications += 1
        return lu.solve(x)

    op_inv = LinearOperator((dim, dim), matvec=apply_inverse, dtype=float)
    v0 = np.random.default_rng(seed).uniform(-0.5, 0.5, dim)
    try:
        vals, vecs = eigsh(S, wanted, M=M, sigma=_SIGMA, OPinv=op_inv, v0=v0,
                           tol=0, maxiter=_MAXITER)
    except ArpackNoConvergence as exc:
        return (exc.eigenvalues, exc.eigenvectors, applications,
                "ARPACK converged %d of %d Ritz pairs"
                % (exc.eigenvalues.size, wanted))
    return vals, vecs, applications, None


def _check_tol(tol, name="tol"):
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("%s must lie in [1e-12, 1e-4]" % name)


def _check_seed(seed):
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError("seed must be a non-negative integer")


def solve_lowest(ops: FemOperators, k: int, tol: float = 1e-8,
                 deflate_constants: bool = True, seed: int = 0) -> Spectrum:
    """Lowest k eigenpairs of S v = lambda M v, ascending.

    ``ops`` holds the stiffness and mass matrices.  With
    ``deflate_constants`` the constant vector is removed from the search
    space, so the reported eigenvalues start at the first nonzero one.
    On both paths the pairs are sorted and deflated the same way, and the
    residuals of the returned pairs are recomputed and certified below
    ``tol``.  If a residual lies above it, or ARPACK's iteration budget
    runs out first, NonConvergence carries the best partial spectrum.  On
    the sparse path ``seed`` (a non-negative integer on both paths) fixes
    the start vector and ``Spectrum.iterations`` counts applications of the
    factored inverse; the dense path reports 1.
    """
    S, M = _pencil(ops)
    dim = S.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_tol(tol)
    _check_seed(seed)
    limit = dim - 1 if deflate_constants else dim
    if k > limit:
        raise ValueError("k=%d exceeds the available spectrum (dim=%d)" % (k, dim))

    vals, vecs, applications, short = _ritz_pairs(S, M, k, deflate_constants,
                                                  seed)
    spectrum = _ritz_spectrum(S, M, vals, vecs, k, tol, applications,
                              deflate_constants)
    worst = spectrum.residuals.max(initial=0.0)
    if short is None and worst > tol:
        short = "residual %.3e above tolerance %.1e" % (worst, tol)
    if short is not None:
        raise NonConvergence("%s after %d operator applications"
                             % (short, applications), spectrum=spectrum)
    return spectrum


def morse_index(ops: FemOperators, potential_constant: float) -> int:
    """Number of eigenvalues of S v = lambda M v below ``potential_constant``.

    This is the index of the quadratic form u'Su - c u'Mu with
    c = potential_constant > 0, read as the number of negative pivots of one
    symmetric factorization of S - c M (Sylvester's law of inertia); no
    eigenpair is computed.  c <= 0 is rejected: 0 is always an eigenvalue
    (the constants), and the count at an eigenvalue is not defined.
    """
    if not potential_constant > 0:
        raise ValueError("potential constant must be positive")
    S, M = _pencil(ops)
    return _factor(S - potential_constant * M).negative_pivots(potential_constant)
