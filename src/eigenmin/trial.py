"""Truncated-coordinate trial functions u_beta = x_i (1 - exp(-beta d^2)/beta).

d is the geodesic distance to a base point, so for large beta the family
approaches the coordinate function while staying adjustable near the base
point.  The sweep measures Rayleigh quotients (raw and after mean-zero
projection), the orthogonality defect against constants, and sup/energy
distances to the plain coordinate.  Both sweep outputs are written here:
the sweep CSV (``sweep_csv``) and the decay-profile file (``write_profiles``).
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .canonical import geodesic_distance
from .fem import (
    FemOperators,
    _values,
    coordinate_function,
    project_mean_zero,
    rayleigh,
)
from .mesh import TriMesh, repr_floats

__all__ = [
    "TruncationParams",
    "SweepRecord",
    "build_truncation",
    "orthogonality_defect",
    "sweep_beta",
    "sweep_csv",
    "truncation_profile",
    "write_profiles",
]

SWEEP_HEADER = "beta,rayleigh_raw,rayleigh_projected,orthogonality_defect,sup_error,grad_l2_error"
PROFILES_HEADER = "beta,distance,phi_beta,u_beta,x_i,abs_error"


@dataclass(frozen=True)
class TruncationParams:
    """Coordinate index (1-based), base point and truncation strength."""

    coord_index: int
    base_point: np.ndarray
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and positive")
        object.__setattr__(
            self, "base_point", np.asarray(self.base_point, dtype=float)
        )


@dataclass(frozen=True)
class SweepRecord:
    beta: float
    rayleigh_raw: float
    rayleigh_projected: float
    orthogonality_defect: float
    sup_error: float
    grad_l2_error: float


def _decay(beta: float, d: np.ndarray) -> np.ndarray:
    """phi_beta = exp(-beta d^2) / beta."""
    with np.errstate(under="ignore"):
        return np.exp(-beta * d * d) / beta


def _truncation(beta: float, d: np.ndarray, x: np.ndarray):
    """phi_beta, u_beta = x_i (1 - phi_beta) and |u_beta - x_i|.

    Elementwise, so a slice of d and x gives the same bits as the whole.
    """
    phi = _decay(beta, d)
    u = x * (1.0 - phi)
    return phi, u, np.abs(u - x)


def _base_distance(mesh: TriMesh, params: TruncationParams) -> np.ndarray:
    """Geodesic distance from every vertex to the base point."""
    if mesh.surface is None or mesh.param_coords is None:
        raise ValueError("truncation functions need a mesh with surface parameters")
    return np.asarray(
        geodesic_distance(mesh.surface, mesh.param_coords, params.base_point)
    )


def build_truncation(mesh: TriMesh, params: TruncationParams) -> np.ndarray:
    """Sample u_beta at every vertex of a canonical mesh."""
    d = _base_distance(mesh, params)
    x = coordinate_function(mesh, params.coord_index)
    return _truncation(params.beta, d, x)[1]


def orthogonality_defect(ops: FemOperators, u) -> float:
    """|<1, u>_M| normalized by Cauchy-Schwarz, so the result lies in [0, 1]."""
    values = _values(u, ops.dim)
    ones = np.ones(ops.dim)
    mu = ops.mass @ values
    unorm_sq = float(values @ mu)
    if unorm_sq <= 1e-14 * max(float(values @ values), 1.0):
        raise ValueError("orthogonality defect of a numerically zero function")
    return float(abs(ones @ mu) / math.sqrt(float(ones @ (ops.mass @ ones)) * unorm_sq))


def _check_betas(betas) -> list:
    """The betas as floats, once they are known to be non-empty, finite,
    positive and strictly ascending."""
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("at least one beta value is required")
    if not all(math.isfinite(b) and b > 0 for b in betas):
        raise ValueError("beta must be finite and positive")
    if any(b1 >= b2 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be strictly ascending")
    return betas


def sweep_beta(mesh: TriMesh, ops: FemOperators, base: TruncationParams,
               betas) -> list:
    """One SweepRecord per beta, in the given (ascending) order."""
    x = coordinate_function(mesh, base.coord_index)
    betas = _check_betas(betas)
    d = _base_distance(mesh, base)
    sup_x = float(np.abs(x).max())
    records = []
    for beta in betas:
        _, u, err = _truncation(beta, d, x)
        raw = rayleigh(ops, u)
        projected = rayleigh(ops, project_mean_zero(ops, u))
        defect = orthogonality_defect(ops, u)
        diff = u - x
        sup_error = float(err.max())
        grad_err = math.sqrt(max(float(diff @ (ops.stiffness @ diff)), 0.0))
        if sup_error > sup_x / beta + 1e-12:
            raise AssertionError(
                "sup_error %.3e exceeds the exact bound %.3e at beta=%g"
                % (sup_error, sup_x / beta, beta)
            )
        records.append(SweepRecord(beta, raw, projected, defect, sup_error, grad_err))
    return records


def sweep_csv(records) -> str:
    """Serialize sweep records with round-trip float precision."""
    lines = [SWEEP_HEADER]
    for r in records:
        lines.append(",".join(repr(float(v)) for v in (
            r.beta, r.rayleigh_raw, r.rayleigh_projected,
            r.orthogonality_defect, r.sup_error, r.grad_l2_error,
        )))
    return "\n".join(lines) + "\n"


def truncation_profile(mesh: TriMesh, params: TruncationParams) -> np.ndarray:
    """Per-vertex profile data for plotting, as a (V, 5) array.

    Columns: distance to the base point, decay exp(-beta d^2)/beta, u_beta,
    x_i and |u_beta - x_i|.  Rows are sorted by distance (vertex index
    breaking ties), which makes them directly plottable as decay curves.
    """
    d = _base_distance(mesh, params)
    order = np.lexsort((np.arange(len(d)), d))
    d = d[order]
    x = coordinate_function(mesh, params.coord_index)[order]
    phi, u, err = _truncation(params.beta, d, x)
    return np.stack([d, phi, u, x, err], axis=1)


# Profile files with fewer rows (vertices x betas) than this are formatted in
# this process: forking the workers and returning their chunks costs more
# than it saves.  Median times of 11-beta profiles on 2 vCPUs, pooled against
# inline: torus 64 (45k rows) 0.21 s / 0.18 s, torus 96 (101k) 0.37 s /
# 0.38 s, torus 128 (180k) 0.52 s / 0.66 s, torus 256 (721k) 1.34 s / 2.06 s.
_PROFILE_POOL_ROWS = 100_000

# Row slices per beta.  Small chunks keep the parent's queue of formatted
# results, and with it its peak memory, small.
_PROFILE_SLICES = 8

# Set by the pool initializer in a forked worker only; the parent never
# holds it.
_worker_state = None


def _profile_rows(state, job):
    """The profile rows of one (beta, start, stop) job, formatted.

    ``state`` holds the distance-sorted distance and x_i columns and their
    ``repr`` strings; only the beta-dependent columns are computed here.
    """
    d, x, fixed = state
    beta, start, stop = job
    columns = np.stack(_truncation(beta, d[start:stop], x[start:stop]), axis=1)
    cells = np.empty((stop - start, 5), dtype=object)
    cells[:, [0, 3]] = fixed[start:stop]
    cells[:, [1, 2, 4]] = repr_floats(columns).reshape(-1, 3)
    row = repr(beta) + ",%s,%s,%s,%s,%s\n"
    return (row * (stop - start)) % tuple(cells.ravel().tolist())


def _init_profile_worker(state):
    global _worker_state
    _worker_state = state


def _pooled_profile_rows(job):
    return _profile_rows(_worker_state, job)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _profile_workers(jobs, rows):
    """Worker processes for the profile writer; 1 formats in this process."""
    if rows < _PROFILE_POOL_ROWS or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(_usable_cpus(), jobs)


def write_profiles(path, mesh: TriMesh, coord: int, p0, betas) -> None:
    """Write the decay profiles as CSV, one block of distance-sorted rows per
    beta (the rows of ``truncation_profile``, beta first).

    Distance, x_i and their strings are made once per sweep.  Each block is
    cut into row slices that format independently; above a size threshold a
    fork pool formats them and ``imap`` returns them in order, so the bytes
    do not depend on the number of workers.  The workers inherit the columns
    through fork instead of receiving them per task; a spawned worker would
    import the package again and need them pickled.  They run elementwise
    numpy and ``repr`` only, no BLAS.
    """
    block = truncation_profile(mesh, TruncationParams(coord, p0, betas[0]))
    # contiguous columns, so every slice takes the same numpy loops as the whole
    state = (block[:, 0].copy(), block[:, 3].copy(),
             repr_floats(block[:, [0, 3]]).reshape(-1, 2))
    n = len(block)
    edges = [n * i // _PROFILE_SLICES for i in range(_PROFILE_SLICES + 1)]
    jobs = [(beta, start, stop) for beta in betas
            for start, stop in zip(edges, edges[1:]) if start < stop]
    workers = _profile_workers(len(jobs), n * len(betas))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(PROFILES_HEADER + "\n")
        if workers == 1:
            fh.writelines(_profile_rows(state, job) for job in jobs)
            return
        pool = multiprocessing.get_context("fork").Pool(
            workers, _init_profile_worker, (state,))
        with pool:
            fh.writelines(pool.imap(_pooled_profile_rows, jobs))
            pool.close()
            pool.join()
