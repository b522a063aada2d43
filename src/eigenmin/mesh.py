"""Closed oriented triangle meshes of the canonical surfaces.

All meshes live in R^4 with every vertex exactly on the unit sphere: the
torus meshes sample the flat (theta, phi) grid, the sphere meshes are
subdivided icosahedra pushed into the equatorial slice x_4 = 0.  Meshes are
immutable once built; generation, refinement and (de)serialization are pure
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import (
    SQRT2,
    TWO_PI,
    CanonicalSurface,
    clifford_torus,
    equatorial_sphere,
)


class MeshError(ValueError):
    """Raised for malformed meshes or mesh files."""


@dataclass(frozen=True)
class TriMesh:
    """Triangle mesh with vertices on the ambient unit sphere.

    vertices: (V, 4) float array; faces: (F, 3) int array of consistently
    oriented triangles; surface: the canonical surface the mesh discretizes
    (None for foreign meshes); param_coords: per-vertex parametric points
    ((V, 2) angles for the torus, the ambient vectors themselves for the
    sphere), or None.
    """

    vertices: np.ndarray
    faces: np.ndarray
    surface: CanonicalSurface | None = None
    param_coords: np.ndarray | None = None

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    @property
    def face_count(self) -> int:
        return self.faces.shape[0]


@dataclass(frozen=True)
class MeshStats:
    vertex_count: int
    face_count: int
    euler_char: int
    max_edge: float
    total_area: float


def _directed_edges(faces: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]], axis=0
    )


def validate(mesh: TriMesh) -> None:
    """Check the structural mesh invariants, raising MeshError on violation.

    Verified: vertex norms 1 within 1e-12, index ranges, closedness (every
    edge in exactly two faces), consistent orientation (the two traversals
    are opposite), and the Euler characteristic expected for the tagged
    surface.
    """
    v, f = mesh.vertices, mesh.faces
    if v.ndim != 2 or v.shape[1] != 4:
        raise MeshError("vertices must be an array of ambient 4-vectors")
    if not np.all(np.isfinite(v)):
        raise MeshError("non-finite vertex coordinate")
    norms = np.linalg.norm(v, axis=1)
    bad = np.nonzero(np.abs(norms - 1.0) > 1e-12)[0]
    if bad.size:
        raise MeshError(
            f"off-sphere vertex {bad[0]} (norm {norms[bad[0]]:.12g})"
        )
    if f.ndim != 2 or f.shape[1] != 3:
        raise MeshError("faces must be index triples")
    if f.min(initial=0) < 0 or f.max(initial=-1) >= len(v):
        raise MeshError("face index out of range")
    if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])):
        raise MeshError("degenerate face (repeated vertex)")

    edges = _directed_edges(f)
    directed = set()
    undirected: dict[tuple[int, int], int] = {}
    for a, b in edges:
        key = (int(a), int(b))
        ukey = (min(key), max(key))
        undirected[ukey] = undirected.get(ukey, 0) + 1
        if undirected[ukey] > 2:
            raise MeshError(f"non-manifold edge {ukey}")
        if key in directed:
            raise MeshError(f"inconsistent orientation at edge {key}")
        directed.add(key)
    for a, b in directed:
        if (b, a) not in directed:
            raise MeshError(f"boundary edge ({a}, {b}); mesh is not closed")

    euler = len(v) - len(undirected) + len(f)
    if mesh.surface is not None:
        expected = 0 if mesh.surface.kind == "clifford" else 2
        if euler != expected:
            raise MeshError(
                f"Euler characteristic {euler}, expected {expected}"
            )


def generate_torus(resolution: int) -> TriMesh:
    """Uniform (theta, phi) grid mesh of the Clifford torus.

    resolution^2 vertices; each grid cell is split along its (+theta, +phi)
    diagonal, a fixed choice that keeps meshes reproducible byte for byte.
    """
    if resolution < 3:
        raise MeshError("resolution must be at least 3")
    angles = TWO_PI * np.arange(resolution) / resolution
    theta, phi = np.meshgrid(angles, angles, indexing="ij")
    params = np.stack([theta.ravel(), phi.ravel()], axis=1)
    vertices = np.stack(
        [
            np.cos(params[:, 0]),
            np.sin(params[:, 0]),
            np.cos(params[:, 1]),
            np.sin(params[:, 1]),
        ],
        axis=1,
    ) / SQRT2

    n = resolution
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    v00 = (i % n) * n + (j % n)
    v10 = ((i + 1) % n) * n + (j % n)
    v11 = ((i + 1) % n) * n + ((j + 1) % n)
    v01 = (i % n) * n + ((j + 1) % n)
    lower = np.stack([v00.ravel(), v10.ravel(), v11.ravel()], axis=1)
    upper = np.stack([v00.ravel(), v11.ravel(), v01.ravel()], axis=1)
    faces = np.concatenate([lower, upper], axis=0)
    return TriMesh(vertices, faces, clifford_torus(), params)


# Icosahedron inscribed in the unit sphere, faces wound counterclockwise as
# seen from outside.
_ICO_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        (-1, _ICO_PHI, 0), (1, _ICO_PHI, 0), (-1, -_ICO_PHI, 0), (1, -_ICO_PHI, 0),
        (0, -1, _ICO_PHI), (0, 1, _ICO_PHI), (0, -1, -_ICO_PHI), (0, 1, -_ICO_PHI),
        (_ICO_PHI, 0, -1), (_ICO_PHI, 0, 1), (-_ICO_PHI, 0, -1), (-_ICO_PHI, 0, 1),
    ],
    dtype=float,
)
_ICO_FACES = np.array(
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=int,
)


def _split_edges(vertices: np.ndarray, faces: np.ndarray):
    """1->4 midpoint split; returns unprojected midpoints appended last."""
    cache: dict[tuple[int, int], int] = {}
    new_pts: list[np.ndarray] = []
    base = len(vertices)

    def midpoint(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        idx = cache.get(key)
        if idx is None:
            idx = base + len(new_pts)
            cache[key] = idx
            new_pts.append(0.5 * (vertices[a] + vertices[b]))
        return idx

    out = np.empty((4 * len(faces), 3), dtype=int)
    for k, (a, b, c) in enumerate(faces):
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out[4 * k : 4 * k + 4] = [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    merged = np.concatenate([vertices, np.array(new_pts)], axis=0)
    return merged, out


def _project_torus(vertices: np.ndarray) -> np.ndarray:
    out = vertices.copy()
    for pair in ((0, 1), (2, 3)):
        r = np.linalg.norm(out[:, pair], axis=1)
        out[:, pair] /= (r * SQRT2)[:, None]
    return out


def _torus_params(vertices: np.ndarray) -> np.ndarray:
    theta = np.mod(np.arctan2(vertices[:, 1], vertices[:, 0]), TWO_PI)
    phi = np.mod(np.arctan2(vertices[:, 3], vertices[:, 2]), TWO_PI)
    return np.stack([theta, phi], axis=1)


def generate_sphere(subdivisions: int) -> TriMesh:
    """Icosahedral mesh of the equatorial 2-sphere in the slice x_4 = 0."""
    if subdivisions < 0:
        raise MeshError("subdivisions must be nonnegative")
    if subdivisions > 8:
        raise MeshError("subdivisions > 8 exceeds the memory guard")
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES
    for _ in range(subdivisions):
        verts, faces = _split_edges(verts, faces)
        verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    v4 = np.zeros((len(verts), 4))
    v4[:, :3] = verts
    return TriMesh(v4, faces, equatorial_sphere(2), v4)


def generate(surface: CanonicalSurface, resolution: int) -> TriMesh:
    """Mesh a canonical surface: grid resolution for the torus, subdivision
    level for the sphere."""
    if surface.kind == "clifford":
        return generate_torus(resolution)
    if surface.kind == "sphere":
        if surface.intrinsic_dim != 2:
            raise MeshError("only the 2-sphere can be meshed")
        return generate_sphere(resolution)
    raise MeshError("unknown surface kind %r" % surface.kind)


def refine(mesh: TriMesh) -> TriMesh:
    """Split every triangle 1->4 and project new vertices back to the surface.

    Sphere midpoints are normalized; torus midpoints have their (x1, x2) and
    (x3, x4) pairs renormalized to radius 1/sqrt(2), the nearest-point
    projection onto the torus.
    """
    if mesh.surface is None:
        raise MeshError("refinement requires a recognized surface tag")
    verts, faces = _split_edges(mesh.vertices, mesh.faces)
    if mesh.surface.kind == "clifford":
        verts = _project_torus(verts)
        params = _torus_params(verts)
    else:
        verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
        verts[:, 3] = 0.0
        params = verts
    return TriMesh(verts, faces, mesh.surface, params)


def edge_lengths(mesh: TriMesh) -> np.ndarray:
    edges = _directed_edges(mesh.faces)
    diff = mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]]
    return np.linalg.norm(diff, axis=1)


def face_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Flat areas of the embedded triangles (Gram determinant form)."""
    u = vertices[faces[:, 1]] - vertices[faces[:, 0]]
    v = vertices[faces[:, 2]] - vertices[faces[:, 0]]
    uu = np.sum(u * u, axis=1)
    vv = np.sum(v * v, axis=1)
    uv = np.sum(u * v, axis=1)
    g = uu * vv - uv * uv
    return 0.5 * np.sqrt(np.maximum(g, 0.0))


def mesh_stats(mesh: TriMesh) -> MeshStats:
    ends = np.sort(_directed_edges(mesh.faces), axis=1).astype(np.int64)
    edge_count = np.unique(ends[:, 0] * mesh.vertex_count + ends[:, 1]).size
    euler = mesh.vertex_count - edge_count + mesh.face_count
    return MeshStats(
        vertex_count=mesh.vertex_count,
        face_count=mesh.face_count,
        euler_char=euler,
        max_edge=float(edge_lengths(mesh).max()),
        total_area=float(face_areas(mesh.vertices, mesh.faces).sum()),
    )


# ---------------------------------------------------------------------------
# SMESH serialization: line-based text, bit-exact float round-trip.
# ---------------------------------------------------------------------------

_MAGIC = "SMESH"


def write_mesh(mesh: TriMesh, path) -> None:
    lines = [f"{_MAGIC} 4", f"{mesh.vertex_count} {mesh.face_count}"]
    for row in mesh.vertices:
        lines.append(" ".join(repr(float(x)) for x in row))
    for a, b, c in mesh.faces:
        lines.append(f"{a} {b} {c}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _infer_surface(vertices: np.ndarray):
    r1 = vertices[:, 0] ** 2 + vertices[:, 1] ** 2
    r2 = vertices[:, 2] ** 2 + vertices[:, 3] ** 2
    if np.all(np.abs(r1 - 0.5) <= 1e-9) and np.all(np.abs(r2 - 0.5) <= 1e-9):
        return clifford_torus(), _torus_params(vertices)
    if np.all(np.abs(vertices[:, 3]) <= 1e-12):
        return equatorial_sphere(2), vertices
    return None, None


def read_mesh(path) -> TriMesh:
    """Parse an SMESH file, validate all mesh invariants, tag the surface.

    The surface tag is inferred from the defining equations (torus pair radii
    or the equatorial slice); foreign meshes that satisfy neither stay
    untagged but must still be closed, oriented, and on the unit sphere.
    """
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.readlines()
    rows = [
        (lineno, line.strip())
        for lineno, line in enumerate(raw, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows:
        raise MeshError(f"{path}: empty mesh file")

    def fail(lineno: int, reason: str):
        raise MeshError(f"{path}:{lineno}: {reason}")

    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != _MAGIC or parts[1] != "4":
        fail(lineno, f"expected header '{_MAGIC} 4'")
    if len(rows) < 2:
        raise MeshError(f"{path}: missing count line")
    lineno, counts = rows[1]
    try:
        nv, nf = (int(t) for t in counts.split())
    except ValueError:
        fail(lineno, "count line must be two integers")
    if nv < 3 or nf < 2:
        fail(lineno, "vertex/face counts too small for a closed mesh")
    if len(rows) != 2 + nv + nf:
        raise MeshError(
            f"{path}: expected {2 + nv + nf} content lines, found {len(rows)}"
        )

    vertices = np.empty((nv, 4))
    for k in range(nv):
        lineno, text = rows[2 + k]
        parts = text.split()
        if len(parts) != 4:
            fail(lineno, "vertex line must have 4 coordinates")
        try:
            vertices[k] = [float(t) for t in parts]
        except ValueError:
            fail(lineno, "unparsable vertex coordinate")
    faces = np.empty((nf, 3), dtype=int)
    for k in range(nf):
        lineno, text = rows[2 + nv + k]
        parts = text.split()
        if len(parts) != 3:
            fail(lineno, "face line must have 3 indices")
        try:
            faces[k] = [int(t) for t in parts]
        except ValueError:
            fail(lineno, "unparsable face index")
        if faces[k].min() < 0 or faces[k].max() >= nv:
            fail(lineno, "face index out of range")

    surface, params = _infer_surface(vertices)
    mesh = TriMesh(vertices, faces, surface, params)
    validate(mesh)
    return mesh
