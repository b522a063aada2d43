"""Deterministic low-end eigenpairs of the P1 pencil (S, M).

Only the source of the Ritz pairs depends on the dimension.  Up to 600
(torus resolution 24, sphere subdivision 2) it is one dense generalized
solve; the levels a default verify solves, torus 32 and 64 and sphere 3
and 4, are all larger.  Larger problems factor S - sigma M once (sparse
LU with a symmetric ordering and diagonal pivots) and run shift-invert
Lanczos (ARPACK) about sigma from a fixed seeded start vector, with two
guard pairs beyond the wanted ones.  Everything after
that is shared: the pairs are sorted, the constant mode is deflated by
dropping the eigenvector with the largest mass-weighted mean, the
residuals are recomputed from the matrices, and one certificate applies,
so a Spectrum certifies itself: ||S v - lambda M v|| / ||M v|| <= tolerance
holds for every reported pair, or NonConvergence is raised.

The shift is -1, below the whole spectrum, unless the caller names the
surface the pencil discretizes (``spectrum`` its mesh's, ``verify`` its
own), which fixes where the exact levels lie.  Shift-invert returns the
Ritz values nearest sigma; once they include the constant (lambda = 0)
they include every value in [0, 2 sigma], so they are the lowest ones.
``_lowest_shift`` therefore picks sigma = 3 where the exact eigenvalues in
[0, 6] are exactly the wanted pairs and the next level lies above 6: the
constant, the wanted pairs and the two guards make 9, which is k = 6
deflated on both surfaces (0, 2 x4, 4 x4 on the Clifford torus; 0, 2 x3,
6 x5 on S^2).  There ARPACK needs fewer operator applications (torus 128:
63 -> 44; sphere 4: 88 -> 65).  Its residuals are higher, up to 1.7e-9
(sphere 4 and 5, 400 seeds) against 2e-12 about -1, so sigma = 3 is picked
only for tolerances of 1e-8 and above, the default.  Deflation checks that
the pair it drops is the constant mode, so a surface that does not match
the pencil can at worst raise NonConvergence, never return pairs that are
not the lowest.

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

from .canonical import CanonicalSurface, exact_spectrum
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
# Default shift of the factored pencil S - sigma M.  S is positive
# semidefinite and M positive definite, so S + M is positive definite and
# the shift sits below the whole spectrum.
_SIGMA = -1.0
# The shift between the first exact levels, and the least tolerance it is
# picked for.  Its Ritz values are the lowest ones only when they include
# the constant: ``_lowest_shift`` picks it where the exact eigenvalues in
# [0, 2 * 3] are the 9 Ritz pairs of k = 6 deflated, and ``_ritz_spectrum``
# raises when the constant is missing.  ARPACK's applications fall from
# 62-63 to 44-50 on the torus (64, 128, 256) and from 82-88 to 59-65 on the
# sphere (4, 5, 6).  At one BLAS thread the worst residual was 7.1e-10 over
# torus 25-80 and sphere 3-5 (k = 6-8, seeds 0-2), 3.3e-10 at torus 256 and
# 3.0e-10 at sphere 6 (seeds 0-2), but 1.5e-9 at sphere 4 (300 seeds, 5
# above 1e-9) and 1.7e-9 at sphere 5 (100 seeds), hence the floor 1e-8.
_SIGMA_BETWEEN = 3.0
_SIGMA_BETWEEN_TOL = 1e-8
# ARPACK restarts before a solve gives up with NonConvergence.
_MAXITER = 3000


class SolverError(RuntimeError):
    """Eigenvalue solve failed structurally."""


class NonConvergence(SolverError):
    """The solve gave no certified spectrum; the message says why and names
    the work spent."""


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
        to A, so only then do its pivots carry A's inertia.  Reading
        ``lu.U`` makes scipy build and cache both L and U as sparse
        matrices, 14 MB more resident at torus 128 (83 -> 97 MB), so a
        solve reads no count.
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
    carries the constant mode.  It must be that mode: its M-cosine with the
    constant must exceed 1/sqrt(2), which at most one vector of the
    M-orthonormal Ritz vectors can do.  Otherwise no Ritz pair is the
    constant, and NonConvergence is raised instead of dropping another
    eigenvector.
    """
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    if deflate and vals.size:
        mass = M @ np.ones(S.shape[0])
        weights = np.abs(mass @ vecs)
        drop = np.argmax(weights)
        cosine = weights[drop] / np.sqrt(mass.sum())
        if not cosine > 0.5 ** 0.5:
            raise NonConvergence(
                "no Ritz pair is the constant mode (largest M-cosine with it"
                " %.3g) after %d operator applications" % (cosine, iterations))
        keep = np.arange(vals.size) != drop
        vals, vecs = vals[keep], vecs[:, keep]
    vals, vecs = vals[:k], vecs[:, :k]
    return Spectrum(vals, vecs, _residuals(S, M, vals, vecs), tol, iterations,
                    deflate)


def _ritz_pairs(S, M, k, deflate, seed, sigma):
    """Ritz values and vectors of the pencil, and the operator applications.

    Up to ``_DENSE_CUTOFF`` every pair comes from one dense generalized
    solve, counted as one application.  Above it, the k wanted pairs, the
    constant mode if deflated and the guard pairs come from shift-invert
    ARPACK about ``sigma`` with one factor of S - sigma M, from a start
    vector fixed by ``seed``; when ARPACK's budget runs out first,
    NonConvergence names how many pairs it converged.
    """
    dim = S.shape[0]
    if dim <= _DENSE_CUTOFF:
        from scipy.linalg import eigh

        try:
            return (*eigh(S.toarray(), M.toarray()), 1)
        except np.linalg.LinAlgError:
            raise ValueError("mass matrix must be symmetric positive definite")
    wanted = k + bool(deflate) + _GUARD_PAIRS
    if wanted >= dim:
        raise ValueError("k=%d needs %d Ritz pairs; ARPACK computes fewer"
                         " than dim=%d" % (k, wanted, dim))
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    lu = _factor(S - sigma * M)
    applications = 0

    def apply_inverse(x):
        nonlocal applications
        applications += 1
        return lu.solve(x)

    op_inv = LinearOperator((dim, dim), matvec=apply_inverse, dtype=float)
    v0 = np.random.default_rng(seed).uniform(-0.5, 0.5, dim)
    try:
        vals, vecs = eigsh(S, wanted, M=M, sigma=sigma, OPinv=op_inv, v0=v0,
                           tol=0, maxiter=_MAXITER)
    except ArpackNoConvergence as exc:
        raise NonConvergence(
            "ARPACK converged %d of %d Ritz pairs after %d operator"
            " applications" % (exc.eigenvalues.size, wanted, applications)
        ) from None
    return vals, vecs, applications


def _lowest_shift(surface: CanonicalSurface | None, k: int, tol: float,
                  deflate_constants: bool = True) -> float:
    """The shift at which ``solve_lowest`` returns the lowest k pairs of a
    pencil that discretizes ``surface`` (None: unknown) in fewest
    applications.

    It is ``_SIGMA_BETWEEN`` = 3 when the solve deflates, ``tol`` is at
    least ``_SIGMA_BETWEEN_TOL``, the exact eigenvalues in [0, 6] are
    exactly the constant, the k wanted pairs and the guard pairs, and no
    level lies within 1 of 3, so that S - 3 M stays far from singular: k = 6
    on the Clifford torus and on S^2.  Otherwise it is ``_SIGMA``.
    """
    if (surface is None or not deflate_constants
            or tol < _SIGMA_BETWEEN_TOL):
        return _SIGMA
    top = 2.0 * _SIGMA_BETWEEN
    levels = exact_spectrum(surface, 1)
    while levels[-1][0] <= top:
        levels = exact_spectrum(surface, len(levels) + 1)
    inside = sum(mult for lam, mult in levels[:-1])
    apart = all(abs(lam - _SIGMA_BETWEEN) >= 1.0 for lam, _ in levels)
    return (_SIGMA_BETWEEN if inside == k + 1 + _GUARD_PAIRS and apart
            else _SIGMA)


def _check_tol(tol, name="tol"):
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("%s must lie in [1e-12, 1e-4]" % name)


def _check_seed(seed):
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError("seed must be a non-negative integer")


def solve_lowest(ops: FemOperators, k: int, tol: float = 1e-8,
                 deflate_constants: bool = True, seed: int = 0,
                 surface: CanonicalSurface | None = None) -> Spectrum:
    """Lowest k eigenpairs of S v = lambda M v, ascending.

    ``ops`` holds the stiffness and mass matrices.  With
    ``deflate_constants`` the constant vector is removed from the search
    space, so the reported eigenvalues start at the first nonzero one.
    On both paths the pairs are sorted and deflated the same way, and the
    residuals of the returned pairs are recomputed and certified below
    ``tol``.  If a residual lies above it, or ARPACK's iteration budget
    runs out first, NonConvergence is raised, and its message names the
    operator applications spent or the dense solve.  On
    the sparse path ``seed`` (a non-negative integer on both paths) fixes
    the start vector and ``Spectrum.iterations`` counts applications of the
    factored inverse; the dense path reports 1.

    ``surface`` is the surface the pencil discretizes, or None if it is
    unknown.  From it the solver places the shift sigma of S - sigma M
    (``_lowest_shift``): 3, between the first exact levels, for a deflated
    k = 6 on the torus and on S^2 at a ``tol`` of 1e-8 or above, and -1,
    below the whole spectrum, otherwise.  The pair that deflation drops
    must be the constant mode, or NonConvergence is raised, so a wrong
    surface can at worst make the solve raise.
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

    sigma = _lowest_shift(surface, k, tol, deflate_constants)
    vals, vecs, applications = _ritz_pairs(S, M, k, deflate_constants, seed,
                                           sigma)
    spectrum = _ritz_spectrum(S, M, vals, vecs, k, tol, applications,
                              deflate_constants)
    worst = spectrum.residuals.max(initial=0.0)
    if worst > tol:
        work = ("the dense solve" if dim <= _DENSE_CUTOFF
                else "%d operator applications" % applications)
        raise NonConvergence("residual %.3e above tolerance %.1e after %s"
                             % (worst, tol, work))
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
