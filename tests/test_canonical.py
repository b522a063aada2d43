"""Tests for the exact analytic layer."""

import math

import numpy as np
import pytest

from eigenmin.canonical import (
    CanonicalSurface,
    clifford_torus,
    embed,
    equatorial_sphere,
    exact_area,
    exact_spectrum,
    geodesic_distance,
    reduce_angle,
    second_fundamental_norm_sq,
    torus_angle_deltas,
    volume_lower_bound,
)

TORUS = clifford_torus()
SPHERE = equatorial_sphere(2)


def test_surface_constructors():
    assert TORUS.kind == "clifford" and TORUS.intrinsic_dim == 2
    assert TORUS.ambient_dim == 4
    assert SPHERE.ambient_dim == 4
    assert equatorial_sphere(1).ambient_dim == 3
    with pytest.raises(ValueError):
        CanonicalSurface("mobius", 2)
    with pytest.raises(ValueError):
        CanonicalSurface("sphere", 0)
    with pytest.raises(ValueError):
        CanonicalSurface("clifford", 3)


def test_euler_characteristic_and_base_point():
    assert TORUS.euler_characteristic == 0
    assert [equatorial_sphere(n).euler_characteristic for n in (1, 2, 3, 4)] == [
        0, 2, 0, 2]
    assert TORUS.base_point == (0.0, 0.0)
    assert equatorial_sphere(3).base_point == (1.0, 0.0, 0.0, 0.0, 0.0)
    # Each base point is a point of its surface.
    for surface in (TORUS, SPHERE, equatorial_sphere(3)):
        assert geodesic_distance(surface, surface.base_point, surface.base_point) == 0.0


def test_exact_spectrum_torus():
    assert exact_spectrum(TORUS, 5) == [
        (0.0, 1),
        (2.0, 4),
        (4.0, 4),
        (8.0, 4),
        (10.0, 8),
    ]


def test_exact_spectrum_torus_widens_its_lattice():
    # Thirty levels need m = k^2 + l^2 up to 64, beyond the first radius 4.
    reps = {}
    for k in range(-9, 10):
        for l in range(-9, 10):
            reps[k * k + l * l] = reps.get(k * k + l * l, 0) + 1
    brute = [(2.0 * m, reps[m]) for m in sorted(reps)[:30]]
    assert brute[-1] == (128.0, 4)
    assert exact_spectrum(TORUS, 30) == brute


def test_exact_spectrum_sphere():
    assert exact_spectrum(SPHERE, 3) == [(0.0, 1), (2.0, 3), (6.0, 5)]
    # S^3: levels k(k+2), multiplicity (k+1)^2.
    assert exact_spectrum(equatorial_sphere(3), 3) == [(0.0, 1), (3.0, 4), (8.0, 9)]
    with pytest.raises(ValueError):
        exact_spectrum(SPHERE, 0)


def test_exact_area_and_second_fundamental():
    assert exact_area(TORUS) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert exact_area(SPHERE) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert second_fundamental_norm_sq(TORUS) == 2.0
    assert second_fundamental_norm_sq(SPHERE) == 0.0


def test_volume_lower_bound():
    assert volume_lower_bound(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert volume_lower_bound(1) == pytest.approx(8.0, rel=1e-14)
    # For odd n the closed form exceeds the sphere's volume: 8 > Vol(S^1) = 2 pi.
    assert volume_lower_bound(1) > exact_area(equatorial_sphere(1))
    # Vol(S^3) = 2 pi^2.
    assert volume_lower_bound(3) < 2.0 * math.pi**2
    with pytest.raises(ValueError):
        volume_lower_bound(0)


def test_reduce_angle_convention():
    # Target interval is (-pi, pi], closed on the right.
    assert reduce_angle(math.pi) == pytest.approx(math.pi, abs=1e-15)
    assert reduce_angle(-math.pi) == pytest.approx(math.pi, abs=1e-15)
    assert reduce_angle(3.0 * math.pi) == pytest.approx(math.pi, abs=1e-12)
    assert reduce_angle(0.25) == pytest.approx(0.25, abs=1e-15)
    assert reduce_angle(2.0 * math.pi - 0.25) == pytest.approx(-0.25, abs=1e-12)
    vals = reduce_angle(np.linspace(-20.0, 20.0, 401))
    assert np.all(vals > -math.pi - 1e-12) and np.all(vals <= math.pi + 1e-12)


def test_torus_angle_deltas_shape_check():
    with pytest.raises(ValueError):
        torus_angle_deltas([0.0, 0.0, 0.0], [0.0, 0.0])


def test_embed_torus():
    x = embed(TORUS, [0.0, 0.0])
    assert x == pytest.approx(np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0))
    pts = np.array([[0.0, 0.0], [math.pi, math.pi / 2.0]])
    stacked = embed(TORUS, pts)
    assert stacked.shape == (2, 4)
    assert np.linalg.norm(stacked, axis=1) == pytest.approx(np.ones(2), abs=1e-15)
    with pytest.raises(ValueError, match="^torus points have 2 coordinates, got 3$"):
        embed(TORUS, [0.0, 0.0, 0.0])


def test_embed_sphere_validates():
    p = np.array([0.6, 0.8, 0.0, 0.0])
    assert embed(SPHERE, p) == pytest.approx(p)
    with pytest.raises(ValueError):
        embed(SPHERE, [2.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        embed(SPHERE, [0.6, 0.0, 0.0, 0.8])
    with pytest.raises(ValueError, match="^sphere points have 4 ambient coordinates, got 3$"):
        embed(SPHERE, [0.6, 0.8, 0.0])


def test_torus_distance_known_values():
    p0 = np.array([0.0, 0.0])
    assert geodesic_distance(TORUS, p0, [math.pi, math.pi]) == pytest.approx(math.pi)
    assert geodesic_distance(TORUS, p0, [math.pi, 0.0]) == pytest.approx(
        math.pi / math.sqrt(2.0)
    )
    # Wrap-around: 2*pi - 0.1 is a short way, not a long one.
    assert geodesic_distance(TORUS, p0, [2.0 * math.pi - 0.1, 0.0]) == pytest.approx(
        0.1 / math.sqrt(2.0), rel=1e-10
    )
    assert isinstance(geodesic_distance(TORUS, p0, p0), float)


def test_sphere_distance_known_values():
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    assert geodesic_distance(SPHERE, e1, e2) == pytest.approx(math.pi / 2.0)
    assert geodesic_distance(SPHERE, e1, -e1) == pytest.approx(math.pi)
    assert geodesic_distance(SPHERE, e1, e1) == pytest.approx(0.0, abs=1e-7)


def _random_points(surface, rng, count):
    if surface.kind == "clifford":
        return rng.uniform(-10.0, 10.0, size=(count, 2))
    v = rng.normal(size=(count, surface.ambient_dim))
    v[:, -1] = 0.0
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("surface", [TORUS, SPHERE], ids=["torus", "sphere"])
def test_metric_axioms(surface):
    rng = np.random.default_rng(7)
    pts = _random_points(surface, rng, 60)
    for a in range(0, 60, 3):
        p, q, r = pts[a], pts[a + 1], pts[a + 2]
        dpq = geodesic_distance(surface, p, q)
        assert dpq >= 0.0
        assert geodesic_distance(surface, q, p) == pytest.approx(dpq, abs=1e-12)
        assert geodesic_distance(surface, p, p) <= 1e-7
        dqr = geodesic_distance(surface, q, r)
        dpr = geodesic_distance(surface, p, r)
        assert dpr <= dpq + dqr + 1e-9


def test_torus_distance_matches_embedded_chord():
    # Geodesic distance must dominate the ambient chord length and agree with
    # the flat-metric formula  |reduced delta| / sqrt(2).
    rng = np.random.default_rng(11)
    pts = _random_points(TORUS, rng, 40)
    for a in range(0, 40, 2):
        p, q = pts[a], pts[a + 1]
        d = geodesic_distance(TORUS, p, q)
        delta = torus_angle_deltas(p, q)
        assert d == pytest.approx(np.linalg.norm(delta) / math.sqrt(2.0), rel=1e-12)
        chord = np.linalg.norm(embed(TORUS, p) - embed(TORUS, q))
        assert d >= chord - 1e-12
