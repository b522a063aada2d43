"""Closed oriented triangle meshes of the canonical surfaces.

All meshes live in R^4 with every vertex exactly on the unit sphere: the
torus meshes sample the flat (theta, phi) grid, the sphere meshes are
subdivided icosahedra pushed into the equatorial slice x_4 = 0.  Meshes are
immutable once built; generation and (de)serialization are pure functions.
A mesh holds its vertices, faces and surface tag and nothing else, which is
exactly what an SMESH file holds; the surface's parametric points of the
vertices are ``canonical.chart`` of their coordinates.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from itertools import compress, filterfalse, islice, repeat

import numpy as np

from .canonical import (
    TWO_PI,
    CanonicalSurface,
    clifford_torus,
    embed,
    equatorial_sphere,
)


class MeshError(ValueError):
    """Raised for malformed meshes or mesh files."""


@dataclass(frozen=True)
class TriMesh:
    """Triangle mesh with vertices on the ambient unit sphere.

    vertices: (V, 4) float array; faces: (F, 3) int array of consistently
    oriented triangles; surface: the canonical surface the mesh discretizes
    (None for foreign meshes).  That is all a mesh holds, and all its SMESH
    file holds: a vertex's parametric point is ``canonical.chart`` of its
    coordinates, so ``generate`` and ``read_mesh`` of the written file give
    equal meshes, field for field.
    """

    vertices: np.ndarray
    faces: np.ndarray
    surface: CanonicalSurface | None = None

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
    surface.  One sort of the 3F directed edges decides every outcome, and
    an error names the edge an edge-by-edge scan would stop at.
    """
    v, f = mesh.vertices, mesh.faces
    if v.ndim != 2 or v.shape[1] != 4:
        raise MeshError("vertices must be an array of ambient 4-vectors")
    if not np.all(np.isfinite(v)):
        raise MeshError("non-finite vertex coordinate")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(v, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > 1e-12)[0]
        if bad.size:
            # a norm whose squares overflowed may be finite once scaled
            norm = norms[bad[0]]
            if np.isinf(norm):
                scale = np.abs(v[bad[0]]).max()
                norm = scale * np.linalg.norm(v[bad[0]] / scale)
            raise MeshError(f"off-sphere vertex {bad[0]} (norm {norm:.12g})")
    if f.ndim != 2 or f.shape[1] != 3:
        raise MeshError("faces must be index triples")
    if f.min(initial=0) < 0 or f.max(initial=-1) >= len(v):
        raise MeshError("face index out of range")
    if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])):
        raise MeshError("degenerate face (repeated vertex)")

    edges = _directed_edges(f).astype(np.int64)
    a, b = edges[:, 0], edges[:, 1]
    nv = len(v)
    keys = a * nv + b
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    # An edge-ordered scan stops at the earliest repeated directed edge: of
    # three uses of an undirected edge two share a direction, so its third
    # use comes at or after such a repeat.  The stable sort keeps equal keys
    # in position order, so a key equal to its predecessor is a repeat.
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        p = int(repeats.min())
        x, y = int(a[p]), int(b[p])
        seen = keys[: p + 1]
        if np.count_nonzero((seen == keys[p]) | (seen == y * nv + x)) > 2:
            raise MeshError(f"non-manifold edge {(min(x, y), max(x, y))}")
        raise MeshError(f"inconsistent orientation at edge {(x, y)}")
    del order
    rkeys = b * nv + a
    slot = np.minimum(np.searchsorted(ordered, rkeys), max(len(ordered) - 1, 0))
    if not np.all(ordered[slot] == rkeys):
        # Name the edge a set-based scan names first.  Iteration order of a
        # set of int pairs depends only on the insertion sequence, so
        # rebuilding the set in edge order reproduces it.
        directed = set(zip(a.tolist(), b.tolist()))
        a0, b0 = next((x, y) for x, y in directed if (y, x) not in directed)
        raise MeshError(f"boundary edge ({a0}, {b0}); mesh is not closed")

    # every directed edge is unique and its reverse is present: 3F/2 edges
    euler = nv - 3 * len(f) // 2 + len(f)
    if mesh.surface is not None:
        expected = mesh.surface.euler_characteristic
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
    if resolution > 256:
        raise MeshError("resolution must be at most 256, the finest torus"
                        " level in the README's time and memory budget")
    angles = TWO_PI * np.arange(resolution) / resolution
    theta, phi = np.meshgrid(angles, angles, indexing="ij")
    surface = clifford_torus()
    vertices = embed(surface, np.stack([theta.ravel(), phi.ravel()], axis=1))

    n = resolution
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    v00 = (i % n) * n + (j % n)
    v10 = ((i + 1) % n) * n + (j % n)
    v11 = ((i + 1) % n) * n + ((j + 1) % n)
    v01 = (i % n) * n + ((j + 1) % n)
    lower = np.stack([v00.ravel(), v10.ravel(), v11.ravel()], axis=1)
    upper = np.stack([v00.ravel(), v11.ravel(), v01.ravel()], axis=1)
    faces = np.concatenate([lower, upper], axis=0)
    return TriMesh(vertices, faces, surface)


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
    """1->4 midpoint split; returns unprojected midpoints appended last.

    Midpoints are numbered in order of first encounter, walking the faces in
    order and each face's edges ab, bc, ca.
    """
    base = len(vertices)
    ends = np.stack([faces, np.roll(faces, -1, axis=1)], axis=2).reshape(-1, 2)
    ends = ends.astype(np.int64)
    keys = ends.min(axis=1) * base + ends.max(axis=1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    encounter = np.argsort(first)
    rank = np.empty_like(encounter)
    rank[encounter] = np.arange(len(encounter))
    mid = (base + rank[inverse]).reshape(-1, 3)
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    ab, bc, ca = mid[:, 0], mid[:, 1], mid[:, 2]
    out = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    first_ends = ends[first[encounter]]
    new_pts = 0.5 * (vertices[first_ends[:, 0]] + vertices[first_ends[:, 1]])
    merged = np.concatenate([vertices, new_pts], axis=0)
    return merged, out


def generate_sphere(subdivisions: int) -> TriMesh:
    """Icosahedral mesh of the equatorial 2-sphere in the slice x_4 = 0."""
    if subdivisions < 0:
        raise MeshError("subdivisions must be nonnegative")
    if subdivisions > 7:
        raise MeshError("subdivisions must be at most 7, the finest sphere"
                        " level in the README's time and memory budget")
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES
    for _ in range(subdivisions):
        verts, faces = _split_edges(verts, faces)
        verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    v4 = np.zeros((len(verts), 4))
    v4[:, :3] = verts
    return TriMesh(v4, faces, equatorial_sphere(2))


def generate(surface: CanonicalSurface, resolution: int) -> TriMesh:
    """Mesh a canonical surface: grid resolution for the torus, subdivision
    level for the sphere."""
    if surface.kind == "clifford":
        return generate_torus(resolution)
    if surface.intrinsic_dim != 2:
        raise MeshError("only the 2-sphere can be meshed")
    return generate_sphere(resolution)


def face_geometry(vertices: np.ndarray, faces: np.ndarray):
    """Gram entries of every face at each of its corners, and the flat face
    areas (Gram determinant form), as ``(corners, areas)``.

    Edge k joins the two corners other than k (e0 = p2 - p1, e1 = p0 - p2,
    e2 = p1 - p0), and ``corners[k]`` is (u.u, v.v, u.v) for the edges
    u = e(k+2) and v = -e(k+1) that leave corner k.  Negation and the order
    of a product's factors are exact, so corner k carries the bits of the
    face rotated to start at k, with u = p(k+1) - pk and v = p(k+2) - pk.
    """
    # np.take copies whole rows, several times faster than fancy indexing;
    # the in-place differences save two fresh (F, 4) arrays
    p0, p1, p2 = (np.take(vertices, faces[:, k], axis=0) for k in range(3))
    edges = (p2 - p1, np.subtract(p0, p2, out=p2), np.subtract(p1, p0, out=p1))
    del p0, p1, p2
    sq = [np.einsum("ij,ij->i", e, e) for e in edges]
    corners = [(sq[(k + 2) % 3], sq[(k + 1) % 3],
                -np.einsum("ij,ij->i", edges[(k + 2) % 3], edges[(k + 1) % 3]))
               for k in range(3)]
    del edges
    uu, vv, uv = corners[0]
    return corners, 0.5 * np.sqrt(np.maximum(uu * vv - uv * uv, 0.0))


def mesh_stats(mesh: TriMesh) -> MeshStats:
    """Counts, Euler characteristic, longest edge and area of a closed
    oriented mesh, as every mesh from ``generate`` and ``read_mesh`` is."""
    # Such a mesh traverses each edge once in each direction, so the
    # directed edges with a < b are every edge exactly once.
    edges = _directed_edges(mesh.faces)
    edges = edges[edges[:, 0] < edges[:, 1]]
    diff = (np.take(mesh.vertices, edges[:, 0], axis=0)
            - np.take(mesh.vertices, edges[:, 1], axis=0))
    return MeshStats(
        vertex_count=mesh.vertex_count,
        face_count=mesh.face_count,
        euler_char=mesh.vertex_count - len(edges) + mesh.face_count,
        max_edge=float(np.linalg.norm(diff, axis=1).max()),
        total_area=float(face_geometry(mesh.vertices, mesh.faces)[1].sum()),
    )


# ---------------------------------------------------------------------------
# SMESH serialization: line-based text, bit-exact float round-trip.
# ---------------------------------------------------------------------------

_MAGIC = "SMESH"


def write_mesh(mesh: TriMesh, path) -> None:
    from . import _text

    nv, width = mesh.vertices.shape
    text = _text.float_text(mesh.vertices).reshape(nv, width, _text.WIDTH)
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC} 4\n{nv} {mesh.face_count}\n".encode("ascii"))
        fh.write(_text.rows([text[:, i] for i in range(width)], sep=b" "))
        faces = ("%d %d %d\n" * mesh.face_count) % tuple(mesh.faces.ravel().tolist())
        fh.write(faces.encode("ascii"))


def _infer_surface(vertices: np.ndarray):
    # a huge coordinate makes r1 or r2 inf, which fails the torus test
    with np.errstate(over="ignore"):
        r1 = vertices[:, 0] ** 2 + vertices[:, 1] ** 2
        r2 = vertices[:, 2] ** 2 + vertices[:, 3] ** 2
    if np.all(np.abs(r1 - 0.5) <= 1e-9) and np.all(np.abs(r2 - 0.5) <= 1e-9):
        return clifford_torus()
    if np.all(np.abs(vertices[:, 3]) <= 1e-12):
        return equatorial_sphere(2)
    return None


def _parse_block(rows, linenos, fail, width: int, kind, count_reason: str,
                 parse_reason: str, limit=None) -> np.ndarray:
    """Parse whitespace-separated rows of ``width`` numbers of type ``kind``
    one line at a time, failing at the first bad line with its reason.

    With ``limit``, a line with an entry outside [0, limit) also fails, so
    that lines are reported in file order.
    """
    block = np.empty((len(rows), width), dtype=kind)
    for k, text in enumerate(rows):
        parts = text.split()
        if len(parts) != width:
            fail(linenos[k], count_reason)
        try:
            block[k] = [kind(t) for t in parts]
        except ValueError:
            fail(linenos[k], parse_reason)
        if limit is not None and (block[k].min() < 0 or block[k].max() >= limit):
            fail(linenos[k], "face index out of range")
    return block


def _read_lines(path, data: bytes):
    """Vertices and faces of the SMESH file ``path`` whose bytes are
    ``data``, read one content line at a time.

    The reference reader: lines are split where text mode splits them (at
    '\n', '\r' or '\r\n'), comment and blank lines are skipped, and every
    error names the file line of the first offending line.
    """
    raw = data.splitlines()
    if not data.isascii():
        lineno = next(k for k, line in enumerate(raw, 1) if not line.isascii())
        raise MeshError(f"{path}:{lineno}: non-ASCII byte")
    lines = list(map(str.strip, map(bytes.decode, raw)))
    # Content lines are the nonblank lines not starting with '#'.  map and
    # compress iterate in C, so no bytecode runs per line.
    keep = np.fromiter(map(bool, lines), bool, len(lines))
    keep &= ~np.fromiter(map(str.startswith, lines, repeat("#")), bool, len(lines))
    linenos = np.flatnonzero(keep) + 1
    rows = list(compress(lines, keep))
    if not rows:
        raise MeshError(f"{path}: empty mesh file")

    def fail(lineno: int, reason: str):
        raise MeshError(f"{path}:{int(lineno)}: {reason}")

    parts = rows[0].split()
    if len(parts) != 2 or parts[0] != _MAGIC or parts[1] != "4":
        fail(linenos[0], f"expected header '{_MAGIC} 4'")
    if len(rows) < 2:
        raise MeshError(f"{path}: missing count line")
    try:
        nv, nf = (int(t) for t in rows[1].split())
    except ValueError:
        fail(linenos[1], "count line must be two integers")
    if nv < 3 or nf < 2:
        fail(linenos[1], "vertex/face counts too small for a closed mesh")
    if len(rows) != 2 + nv + nf:
        raise MeshError(
            f"{path}: expected {2 + nv + nf} content lines, found {len(rows)}"
        )

    vertices = _parse_block(rows[2 : 2 + nv], linenos[2 : 2 + nv], fail, 4, float,
                            "vertex line must have 4 coordinates",
                            "unparsable vertex coordinate")
    faces = _parse_block(rows[2 + nv :], linenos[2 + nv :], fail, 3, int,
                         "face line must have 3 indices",
                         "unparsable face index", limit=nv)
    return vertices, faces


def _read_bytes(data: bytes):
    """Vertices and faces of an SMESH file whose bytes are ``data``, or None
    where the file needs the per-line reader.

    Any ASCII file is read here.  Its content lines (nonblank, not starting
    with '#', split where text mode splits them) go to numpy's C reader in
    two blocks: the V lines after the header and counts, then the rest.  A
    file with no '#' or '\\r' is read straight from the bytes, one line at a
    time, so no list of lines is built.  Anything the per-line reader would
    report (a header, a count, a line count, a field count, a token or an
    index it rejects) returns None instead; so does a token numpy's reader
    rejects but Python's ``float``/``int`` take, such as '1_0'.
    """
    if not data.isascii():
        return None
    if b"\r" in data or b"#" in data:
        lines = (t for t in map(bytes.strip, data.splitlines())
                 if t and not t.startswith(b"#"))
    else:
        # the nonblank lines; the BytesIO shares the buffer of ``data``
        lines = filterfalse(bytes.isspace, io.BytesIO(data))
    if next(lines, b"").split() != [_MAGIC.encode(), b"4"]:
        return None
    try:
        nv, nf = (int(t) for t in next(lines, b"").split())
    except ValueError:
        return None
    if nv < 3 or nf < 2:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # an all-blank block
            vertices = np.loadtxt(islice(lines, nv), comments=None, ndmin=2)
            faces = np.loadtxt(lines, dtype=int, comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    # the face block is the rest of the file, so its shape also checks the
    # number of content lines
    if (vertices.shape != (nv, 4) or faces.shape != (nf, 3)
            or faces.min() < 0 or faces.max() >= nv):
        return None
    return vertices, faces


def read_mesh(path) -> TriMesh:
    """Parse an SMESH file, validate all mesh invariants, tag the surface.

    The file's bytes are read once and, for any ASCII file, their content
    lines are parsed in two numpy blocks.  Only bytes that parse declines
    (an error, a token only Python's parsers take, or a non-ASCII byte) are
    parsed again, one line at a time, so that an error names the first bad
    line.

    The surface tag is inferred from the defining equations (torus pair radii
    or the equatorial slice); foreign meshes that satisfy neither stay
    untagged but must still be closed, oriented, and on the unit sphere.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    vertices, faces = _read_bytes(data) or _read_lines(path, data)
    del data  # validation does not need the file's bytes
    mesh = TriMesh(vertices, faces, _infer_surface(vertices))
    validate(mesh)
    return mesh
