"""Shared fixtures. Expensive meshes, operators, and spectra are built once per session."""

import multiprocessing
import time

import pytest

from eigenmin import canonical, eigen, fem, mesh, trial, verify


@pytest.fixture(scope="session")
def torus16():
    return mesh.generate_torus(16)


@pytest.fixture(scope="session")
def torus32():
    return mesh.generate_torus(32)


@pytest.fixture(scope="session")
def torus64():
    return mesh.generate_torus(64)


@pytest.fixture(scope="session")
def sphere2():
    return mesh.generate_sphere(2)


@pytest.fixture(scope="session")
def sphere4():
    return mesh.generate_sphere(4)


@pytest.fixture(scope="session")
def ops16(torus16):
    return fem.assemble(torus16)


@pytest.fixture(scope="session")
def ops32(torus32):
    return fem.assemble(torus32)


@pytest.fixture(scope="session")
def ops64(torus64):
    return fem.assemble(torus64)


@pytest.fixture(scope="session")
def ops_s2(sphere2):
    return fem.assemble(sphere2)


@pytest.fixture(scope="session")
def ops_s4(sphere4):
    return fem.assemble(sphere4)


@pytest.fixture(scope="session")
def torus_spectrum(ops64):
    return eigen.solve_lowest(ops64, 6)


@pytest.fixture(scope="session")
def sphere_spectrum(ops_s4):
    return eigen.solve_lowest(ops_s4, 6)


@pytest.fixture(scope="session")
def torus_report():
    """Full torus verification at default settings, with its wall time."""
    t0 = time.perf_counter()
    report = verify.run_all(canonical.clifford_torus())
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sphere_report():
    t0 = time.perf_counter()
    report = verify.run_all(canonical.equatorial_sphere(2))
    return report, time.perf_counter() - t0


@pytest.fixture
def pooled_profiles(monkeypatch):
    """Make `sweep --profiles` format on a two-worker fork pool at any size."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the fork start method is not available")
    monkeypatch.setattr(trial, "_PROFILE_POOL_ROWS", 0)
    monkeypatch.setattr(trial, "_fork_cpus", lambda: 2)
