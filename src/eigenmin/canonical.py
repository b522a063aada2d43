"""Exact analytic layer for the canonical minimal hypersurfaces of the unit sphere.

Two surfaces are supported: the equatorial n-sphere, embedded as the slice
x_{n+2} = 0 of S^{n+1}, and the Clifford torus
{x_1^2 + x_2^2 = x_3^2 + x_4^2 = 1/2} in S^3.  Everything here is closed-form
and acts as ground truth for the discretized machinery in the other modules.

Point conventions:

* Clifford torus: points are angle pairs (theta, phi); the embedding is
  (cos t, sin t, cos p, sin p) / sqrt(2).
* Equatorial sphere: no global chart exists, so points are ambient unit
  vectors of length n + 2 whose last coordinate is 0.

``embed`` maps points to ambient coordinates and ``chart`` maps ambient
coordinates back; no other code converts between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi

_POINT_TOL = 1e-9


@dataclass(frozen=True)
class CanonicalSurface:
    """Descriptor of an exactly known minimal hypersurface of S^{n+1}.

    kind is "sphere" (equatorial, totally geodesic) or "clifford" (the flat
    minimal torus in S^3).  ambient_dim is always intrinsic_dim + 2.
    """

    kind: str
    intrinsic_dim: int

    def __post_init__(self) -> None:
        if self.kind not in ("sphere", "clifford"):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.intrinsic_dim < 1:
            raise ValueError("intrinsic_dim must be positive")
        if self.kind == "clifford" and self.intrinsic_dim != 2:
            raise ValueError("the Clifford torus has intrinsic dimension 2")

    @property
    def ambient_dim(self) -> int:
        return self.intrinsic_dim + 2

    @property
    def euler_characteristic(self) -> int:
        """0 for the torus, 1 + (-1)^n for S^n."""
        if self.kind == "clifford":
            return 0
        return 1 + (-1) ** self.intrinsic_dim

    @property
    def base_point(self) -> tuple:
        """The default base point in this surface's point convention: the
        angle pair (0, 0) on the torus, the ambient vector (1, 0, ..., 0) on
        the sphere."""
        if self.kind == "clifford":
            return (0.0, 0.0)
        return (1.0,) + (0.0,) * (self.ambient_dim - 1)


def equatorial_sphere(n: int = 2) -> CanonicalSurface:
    return CanonicalSurface("sphere", n)


def clifford_torus() -> CanonicalSurface:
    return CanonicalSurface("clifford", 2)


def reduce_angle(delta):
    """Reduce an angle difference to the interval (-pi, pi]."""
    return math.pi - np.mod(math.pi - np.asarray(delta, dtype=float), TWO_PI)


def torus_angle_deltas(p, q):
    """Reduced (dtheta, dphi) between torus points, each in (-pi, pi]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1] != 2 or q.shape[-1] != 2:
        raise ValueError("torus points are angle pairs (theta, phi)")
    return reduce_angle(p - q)


def embed(surface: CanonicalSurface, p) -> np.ndarray:
    """Map a parametric point to its ambient coordinates on the unit sphere.

    For the torus p is (theta, phi); for the sphere p is already an ambient
    unit vector with vanishing last coordinate (it is validated and returned
    renormalized).  Accepts stacked points in the leading axes.
    """
    p = np.asarray(p, dtype=float)
    if surface.kind == "clifford":
        if p.shape[-1] != 2:
            raise ValueError(
                f"torus points have 2 coordinates, got {p.shape[-1]}"
            )
        theta, phi = p[..., 0], p[..., 1]
        out = np.stack(
            [np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)], axis=-1
        )
        return out / SQRT2
    if p.shape[-1] != surface.ambient_dim:
        raise ValueError(
            f"sphere points have {surface.ambient_dim} ambient coordinates, "
            f"got {p.shape[-1]}"
        )
    norms = np.linalg.norm(p, axis=-1)
    if np.any(np.abs(norms - 1.0) > _POINT_TOL):
        raise ValueError("sphere point is not a unit vector")
    if np.any(np.abs(p[..., -1]) > _POINT_TOL):
        raise ValueError("sphere point must lie in the equatorial slice")
    out = p / norms[..., None]
    out[..., -1] = 0.0
    return out


def chart(surface: CanonicalSurface, x) -> np.ndarray:
    """Inverse of ``embed``: the parametric points of ambient points x.

    For the torus each angle is the arctan2 of its circle's two coordinates,
    reduced to [0, 2 pi); for the sphere the points are the ambient vectors
    themselves.  Accepts stacked points in the leading axes.
    """
    x = np.asarray(x, dtype=float)
    if surface.kind != "clifford":
        return x
    return np.stack([np.mod(np.arctan2(x[..., k + 1], x[..., k]), TWO_PI)
                     for k in (0, 2)], axis=-1)


def geodesic_distance(surface: CanonicalSurface, p, q):
    """Geodesic distance between two points of a canonical surface.

    Sphere: the angular distance arccos <p, q>.  Torus: the flat product
    metric distance sqrt(dtheta^2 + dphi^2) / sqrt(2), the minimum over
    lattice shifts, which the unshifted differences attain once each is
    reduced to (-pi, pi].  Broadcasts over leading axes.
    """
    if surface.kind == "clifford":
        d = torus_angle_deltas(p, q)
        out = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2) / SQRT2
    else:
        a = embed(surface, p)
        b = embed(surface, q)
        dot = np.clip(np.sum(a * b, axis=-1), -1.0, 1.0)
        out = np.arccos(dot)
    return out if out.ndim else float(out)


def exact_spectrum(
    surface: CanonicalSurface, count: int
) -> list[tuple[float, int]]:
    """First `count` distinct Laplace-Beltrami eigenvalue levels with multiplicities.

    Clifford torus: the flat square torus of side pi*sqrt(2) has eigenvalues
    2(k^2 + l^2) over integer pairs; multiplicity is the lattice count of
    representations.  Sphere S^n: k(k + n - 1) with the usual spherical
    harmonic multiplicities.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if surface.kind == "clifford":
        radius = 4
        while True:
            reps: dict[int, int] = {}
            for k in range(-radius, radius + 1):
                for l in range(-radius, radius + 1):
                    m = k * k + l * l
                    if m <= radius * radius:
                        reps[m] = reps.get(m, 0) + 1
            levels = sorted(reps)
            if len(levels) >= count:
                return [(2.0 * m, reps[m]) for m in levels[:count]]
            radius *= 2
    n = surface.intrinsic_dim
    out = []
    for k in range(count):
        if k == 0:
            mult = 1
        else:
            mult = math.comb(n + k, n) - math.comb(n + k - 2, n)
        out.append((float(k * (k + n - 1)), mult))
    return out


def exact_area(surface: CanonicalSurface) -> float:
    """Exact Riemannian volume (area for n = 2) of the surface.

    The torus has area 2 pi^2 (volume element sqrt(g) = 1/2 over [0, 2pi)^2);
    S^n has the classical value 2 pi^{(n+1)/2} / Gamma((n+1)/2).
    """
    if surface.kind == "clifford":
        return 2.0 * math.pi**2
    n = surface.intrinsic_dim
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def second_fundamental_norm_sq(surface: CanonicalSurface) -> float:
    """Squared norm |A|^2 of the second fundamental form (constant here)."""
    return 2.0 if surface.kind == "clifford" else 0.0


def volume_lower_bound(n: int) -> float:
    """The lower bound 4 pi^{n/2} / Gamma(n/2 + 1) for minimal Sigma^n in S^{n+1}.

    For n = 2 this equals Vol(S^2) = 4 pi, with equality exactly on the
    equatorial sphere, and n = 2 is the only dimension ``eigenmin.verify``
    checks.  At n = 1 the expression is 8, above the length 2 pi of a great
    circle, so it is no lower bound there.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return 4.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
