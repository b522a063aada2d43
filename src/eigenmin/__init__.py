"""Desk-scale spectral checks for minimal hypersurfaces of the unit sphere.

The package discretizes the Laplace-Beltrami operator on the Clifford
torus and the equatorial 2-sphere with P1 finite elements, solves for the
low end of the spectrum, builds truncated-coordinate trial functions, and
verifies the classical identities (lambda_1 = n, the Takahashi identity,
Willmore and volume values, Morse indices) against closed-form oracles.
"""

import os


def _apply_thread_width():
    """Honor EIGENMIN_THREADS before any numerics library spins up BLAS."""
    width = os.environ.get("EIGENMIN_THREADS", "").strip()
    if width.isdigit() and int(width) > 0:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, width)


_apply_thread_width()

from . import canonical, eigen, fem, mesh, trial, verify  # noqa: E402
from .canonical import (  # noqa: E402
    CanonicalSurface,
    clifford_torus,
    equatorial_sphere,
    exact_area,
    exact_spectrum,
    geodesic_distance,
)
from .eigen import Spectrum, morse_index, solve_lowest  # noqa: E402
from .fem import FemOperators, assemble  # noqa: E402
from .mesh import TriMesh, generate, read_mesh, write_mesh  # noqa: E402
from .trial import build_truncation, sweep_beta  # noqa: E402
from .verify import VerificationReport, render_report, run_all  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "CanonicalSurface",
    "clifford_torus",
    "equatorial_sphere",
    "exact_area",
    "exact_spectrum",
    "geodesic_distance",
    "Spectrum",
    "morse_index",
    "solve_lowest",
    "FemOperators",
    "assemble",
    "TriMesh",
    "generate",
    "read_mesh",
    "write_mesh",
    "build_truncation",
    "sweep_beta",
    "VerificationReport",
    "render_report",
    "run_all",
    "canonical",
    "mesh",
    "fem",
    "eigen",
    "trial",
    "verify",
]
