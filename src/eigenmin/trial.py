"""Truncated-coordinate trial functions u_beta = x_i (1 - exp(-beta d^2)/beta).

d is the geodesic distance to a base point, so for large beta the family
approaches the coordinate function while staying adjustable near the base
point.  The sweep measures Rayleigh quotients (raw and after mean-zero
projection), the orthogonality defect against constants, and sup/energy
distances to the plain coordinate.  Both sweep outputs are written here:
the sweep CSV (``sweep_csv``) and the decay-profile file (``write_profiles``).
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from . import _fork
from .canonical import chart, geodesic_distance
from .fem import (
    FemOperators,
    _values,
    coordinate_function,
    project_mean_zero,
    rayleigh,
)
from .mesh import TriMesh

__all__ = [
    "SweepRecord",
    "build_truncation",
    "orthogonality_defect",
    "sweep_beta",
    "sweep_csv",
    "truncation_profile",
    "write_profiles",
]

# Smallest accepted beta.  As beta -> 0, u_beta grows like x_i/beta, so the
# quadratic forms u'Su and u'Mu grow like beta^-2; on a torus of resolution 8
# they overflow a float below beta = 1e-154.  At this floor beta^-2 is 1e200,
# which leaves a factor 1e108 for the entry sums of S and M on any mesh.
_MIN_BETA = 1e-100

SWEEP_HEADER = "beta,rayleigh_raw,rayleigh_projected,orthogonality_defect,sup_error,grad_l2_error"
PROFILES_HEADER = "beta,distance,phi_beta,u_beta,x_i,abs_error"


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


def _base_distance(mesh: TriMesh, p0) -> np.ndarray:
    """Geodesic distance from every vertex to the base point p0."""
    if mesh.surface is None:
        raise ValueError("truncation functions need a mesh of a canonical surface")
    return geodesic_distance(mesh.surface, chart(mesh.surface, mesh.vertices), p0)


def build_truncation(mesh: TriMesh, coord: int, p0, beta: float) -> np.ndarray:
    """Sample u_beta of coordinate ``coord`` (1-based) around ``p0`` at every
    vertex of a canonical mesh."""
    (beta,) = _check_betas([beta])
    d = _base_distance(mesh, p0)
    x = coordinate_function(mesh, coord)
    return _truncation(beta, d, x)[1]


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
    at least ``_MIN_BETA`` and strictly ascending."""
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("at least one beta value is required")
    if not all(math.isfinite(b) and b > 0 for b in betas):
        raise ValueError("beta must be finite and positive")
    if min(betas) < _MIN_BETA:
        raise ValueError("beta %r is below %g, where the quadratic forms of"
                         " u_beta overflow" % (min(betas), _MIN_BETA))
    if any(b1 >= b2 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be strictly ascending")
    return betas


def sweep_beta(mesh: TriMesh, ops: FemOperators, coord: int, p0, betas) -> list:
    """One SweepRecord per beta, in the given (ascending) order."""
    x = coordinate_function(mesh, coord)
    betas = _check_betas(betas)
    d = _base_distance(mesh, p0)
    records = []
    for beta in betas:
        _, u, err = _truncation(beta, d, x)
        raw = rayleigh(ops, u)
        projected = rayleigh(ops, project_mean_zero(ops, u))
        defect = orthogonality_defect(ops, u)
        diff = u - x
        sup_error = float(err.max())
        grad_err = math.sqrt(max(float(diff @ (ops.stiffness @ diff)), 0.0))
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


def _sorted_columns(mesh: TriMesh, coord: int, p0):
    """The distance to p0 and x_i at every vertex, sorted by distance
    (vertex index breaking ties), as contiguous arrays, so that a slice
    takes the same numpy loops as the whole."""
    d = _base_distance(mesh, p0)
    order = np.lexsort((np.arange(len(d)), d))
    return d[order], coordinate_function(mesh, coord)[order]


def truncation_profile(mesh: TriMesh, coord: int, p0, beta: float) -> np.ndarray:
    """Per-vertex profile data for plotting, as a (V, 5) array.

    Columns: distance to the base point, decay exp(-beta d^2)/beta, u_beta,
    x_i and |u_beta - x_i|.  Rows are sorted by distance (vertex index
    breaking ties), which makes them directly plottable as decay curves.
    """
    (beta,) = _check_betas([beta])
    d, x = _sorted_columns(mesh, coord, p0)
    phi, u, err = _truncation(beta, d, x)
    return np.stack([d, phi, u, x, err], axis=1)


# Row slices per beta, the unit that the writer and its forked child share out.
_PROFILE_SLICES = 8


def _profile_rows(state, job) -> bytes:
    """The profile rows of one (beta, start, stop) job, formatted.

    ``state`` holds the distance-sorted distance and x_i columns and their
    texts; only the beta-dependent columns are computed here.  Where u_beta
    is x_i to the bit (phi_beta too small to move it), it takes x_i's text.
    """
    from . import _text

    d, x, d_text, x_text = state
    beta, start, stop = job
    n = stop - start
    x, x_text = x[start:stop], x_text[start:stop]
    phi, u, err = _truncation(beta, d[start:stop], x)
    moved = u.view(np.int64) != x.view(np.int64)
    texts = _text.float_text(np.concatenate([phi, err, u[moved]]))
    u_text = x_text.copy()
    u_text[moved] = texts[2 * n:]
    beta_text = np.frombuffer(repr(beta).encode("ascii"), np.uint8)
    return _text.rows([np.broadcast_to(beta_text, (n, beta_text.size)), d_text[start:stop],
                       texts[:n], u_text, x_text, texts[n:2 * n]])


def _write_head(fh, state, jobs, ends):
    """Write the header, then each job from ``ends[0]`` on that still comes
    before ``ends[1]``."""
    fh.write(PROFILES_HEADER.encode("ascii") + b"\n")
    while ends[0] < ends[1]:
        fh.write(_profile_rows(state, jobs[ends[0]]))
        ends[0] += 1


def _write_with_tail(fh, state, jobs):
    """Write the head here while one forked child formats the tail, then let
    the child write its own rows after the head."""
    # The next job of the head, one past the last job the tail has left,
    # and, at the handoff, the byte offset where the head ends.  Each end
    # takes a slice only while the other has not passed it, so both may
    # format the slice where they meet, and neither skips one.
    ends = np.frombuffer(mmap.mmap(-1, 24), dtype=np.int64)
    ends[:] = 0, len(jobs), 0
    read_fd, write_fd = os.pipe()  # carries the one byte of the handoff
    with open(read_fd, "rb", buffering=0) as from_head, \
            open(write_fd, "wb", buffering=0) as to_tail:

        def tail():
            to_tail.close()
            rows = []  # rows[i] holds job len(jobs) - 1 - i
            while ends[1] > ends[0]:
                rows.append(_profile_rows(state, jobs[ends[1] - 1]))
                ends[1] -= 1
            if not from_head.read(1):  # the head failed: write nothing
                return
            offset, first = int(ends[2]), int(ends[0])
            for text in reversed(rows[:len(jobs) - first]):
                data = memoryview(text)
                while data:
                    written = os.pwrite(fh.fileno(), data, offset)
                    data, offset = data[written:], offset + written

        with _fork.child(tail) as tail_result:
            from_head.close()
            try:
                _write_head(fh, state, jobs, ends)
                ends[2] = fh.tell()  # flushes the head
                with contextlib.suppress(BrokenPipeError):  # the tail has ended
                    to_tail.write(b"\0")
            except BaseException:
                ends[0] = len(jobs)  # the ends have met: the tail stops at once
                raise
            finally:
                to_tail.close()
            tail_result()


def write_profiles(path, mesh: TriMesh, coord: int, p0, betas) -> None:
    """Write the decay profiles as CSV, one block of distance-sorted rows per
    beta (the rows of ``truncation_profile``, beta first).

    Distance, x_i and their texts are made once per sweep.  Each block is
    cut into row slices that format independently.  Where a second CPU is
    usable (``_fork.cpus``) and the file is seekable, this process writes
    slices from the first while one forked child formats them from the
    last.  Where the two ends meet, this process flushes its head and hands
    the child, through shared memory, the byte offset where the head ends
    and the first job the child still owns; the child writes its rows there
    with ``os.pwrite``, so no row passes through a pipe.  If this process
    fails before the handoff, the ends meet at once and the child writes
    nothing.  Small betas cost up to five times as much, so that is where
    the work is even, not the middle.  The child runs elementwise numpy
    only, no BLAS: ``_text.float_text`` gives each float ``repr``'s bytes.
    """
    from . import _text

    betas = _check_betas(betas)
    d, x = _sorted_columns(mesh, coord, p0)
    state = (d, x, _text.float_text(d), _text.float_text(x))
    edges = [len(d) * i // _PROFILE_SLICES for i in range(_PROFILE_SLICES + 1)]
    jobs = [(beta, start, stop) for beta in betas
            for start, stop in zip(edges, edges[1:]) if start < stop]
    with open(path, "wb") as fh:
        if _fork.cpus() >= 2 and fh.seekable():
            _write_with_tail(fh, state, jobs)
        else:
            _write_head(fh, state, jobs, [0, len(jobs)])
