"""Tests for mesh generation, validation, and serialization."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenmin import _text, canonical, cli, mesh
from eigenmin.mesh import (
    MeshError,
    TriMesh,
    generate,
    generate_sphere,
    generate_torus,
    mesh_stats,
    read_mesh,
    validate,
    write_mesh,
)


def test_torus_counts_and_topology(torus16):
    st = mesh_stats(torus16)
    assert st.vertex_count == 256
    assert st.face_count == 512
    assert st.euler_char == 0
    assert st.max_edge == pytest.approx(0.390180644032257, rel=1e-12)
    assert st.total_area == pytest.approx(19.4868396771106, rel=1e-12)
    assert st.total_area < canonical.exact_area(canonical.clifford_torus())
    validate(torus16)


def test_torus_vertices_on_unit_sphere(torus64):
    norms = np.linalg.norm(torus64.vertices, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14
    # Both circle radii are 1/sqrt(2).
    r1 = np.hypot(torus64.vertices[:, 0], torus64.vertices[:, 1])
    assert np.max(np.abs(r1 - 1.0 / math.sqrt(2.0))) < 1e-14
    params = canonical.chart(torus64.surface, torus64.vertices)
    assert params.shape == (torus64.vertex_count, 2)


def test_torus_resolution_guard():
    with pytest.raises(MeshError):
        generate_torus(2)
    with pytest.raises(MeshError, match="at most 256, .* time and memory budget"):
        generate_torus(257)


def test_sphere_counts_and_topology(sphere2):
    st = mesh_stats(sphere2)
    assert st.vertex_count == 162  # 10 * 4^s + 2
    assert st.face_count == 320
    assert st.euler_char == 2
    assert st.total_area == pytest.approx(12.3298485952347, rel=1e-12)
    validate(sphere2)


def test_icosahedron_area_closed_form():
    st = mesh_stats(generate_sphere(0))
    # 20 equilateral faces with circumradius 1: side^2 = 16 / (10 + 2 sqrt 5).
    side_sq = 16.0 / (10.0 + 2.0 * math.sqrt(5.0))
    assert st.total_area == pytest.approx(20.0 * math.sqrt(3.0) / 4.0 * side_sq, rel=1e-13)
    assert st.vertex_count == 12 and st.face_count == 20 and st.euler_char == 2


@pytest.mark.parametrize("maker", [lambda: generate_torus(3),
                                   lambda: generate_torus(16),
                                   lambda: generate_sphere(0),
                                   lambda: generate_sphere(2)],
                         ids=["torus3", "torus16", "sphere0", "sphere2"])
def test_mesh_stats_edges_match_all_directed_edges(maker):
    # mesh_stats takes each undirected edge once; the references norm all
    # 3F directed edges, so every edge twice, and count distinct pairs.
    m = maker()
    f, v = m.faces, m.vertices
    ends = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    st = mesh_stats(m)
    assert st.max_edge == float(np.linalg.norm(v[ends[:, 0]] - v[ends[:, 1]], axis=1).max())
    edge_count = len(np.unique(np.sort(ends, axis=1), axis=0))
    assert st.euler_char == m.vertex_count - edge_count + m.face_count


@pytest.mark.parametrize("name", ["torus16", "sphere2"])
def test_face_geometry_corner_k_is_the_face_rotated_to_start_at_k(name, request):
    # The Gram entries at corner k carry the bits of u = p(k+1) - pk and
    # v = p(k+2) - pk; at corner 0 these are the face's own edge vectors.
    m = request.getfixturevalue(name)
    corners, _ = mesh.face_geometry(m.vertices, m.faces)
    for k in range(3):
        f = np.roll(m.faces, -k, axis=1)
        u = m.vertices[f[:, 1]] - m.vertices[f[:, 0]]
        v = m.vertices[f[:, 2]] - m.vertices[f[:, 0]]
        want = [np.einsum("ij,ij->i", a, b) for a, b in ((u, u), (v, v), (u, v))]
        for got, entry in zip(corners[k], want):
            assert np.array_equal(got, entry)


def test_sphere_subdivision_guards():
    with pytest.raises(MeshError):
        generate_sphere(-1)
    with pytest.raises(MeshError, match="at most 7, .* time and memory budget"):
        generate_sphere(8)


def test_sphere_vertices_in_equatorial_slice(sphere4):
    assert np.all(sphere4.vertices[:, 3] == 0.0)
    norms = np.linalg.norm(sphere4.vertices, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14


def test_generate_dispatch():
    t = generate(canonical.clifford_torus(), 8)
    assert t.vertex_count == 64
    s = generate(canonical.equatorial_sphere(2), 1)
    assert s.vertex_count == 42
    with pytest.raises(MeshError):
        generate(canonical.equatorial_sphere(3), 1)


def test_validate_rejects_open_mesh(torus16):
    broken = TriMesh(torus16.vertices, torus16.faces[:-1], torus16.surface)
    with pytest.raises(MeshError, match="boundary edge"):
        validate(broken)


def test_validate_rejects_flipped_face(torus16):
    faces = torus16.faces.copy()
    faces[0] = faces[0][::-1]
    with pytest.raises(MeshError, match="orientation"):
        validate(TriMesh(torus16.vertices, faces, torus16.surface))


def test_validate_rejects_degenerate_face(torus16):
    faces = torus16.faces.copy()
    faces[5, 1] = faces[5, 0]
    with pytest.raises(MeshError, match="degenerate"):
        validate(TriMesh(torus16.vertices, faces, torus16.surface))


def test_validate_rejects_off_sphere_vertex(torus16):
    verts = torus16.vertices.copy()
    verts[0] *= 1.001
    with pytest.raises(MeshError):
        validate(TriMesh(verts, torus16.faces, torus16.surface))


@pytest.mark.parametrize("vertices, faces, message", [
    (lambda m: m.vertices[:, :3], lambda m: m.faces,
     "vertices must be an array of ambient 4-vectors"),
    (lambda m: m.vertices.ravel(), lambda m: m.faces,
     "vertices must be an array of ambient 4-vectors"),
    (lambda m: m.vertices, lambda m: m.faces[:, :2], "faces must be index triples"),
    (lambda m: m.vertices, lambda m: m.faces.ravel(), "faces must be index triples"),
], ids=["3-columns", "flat-vertices", "2-columns", "flat-faces"])
def test_validate_rejects_misshapen_arrays(torus16, vertices, faces, message):
    with pytest.raises(MeshError, match="^%s$" % message):
        validate(TriMesh(vertices(torus16), faces(torus16), torus16.surface))


def test_validate_rejects_out_of_range_index(torus16):
    faces = torus16.faces.copy()
    faces[0, 0] = torus16.vertex_count
    with pytest.raises(MeshError, match="out of range"):
        validate(TriMesh(torus16.vertices, faces, torus16.surface))


@pytest.mark.parametrize("maker", [lambda: generate_torus(32), lambda: generate_sphere(3)],
                         ids=["torus32", "sphere3"])
def test_roundtrip_bit_exact(maker, tmp_path):
    original = maker()
    path = tmp_path / "mesh.smesh"
    write_mesh(original, path)
    loaded = read_mesh(path)
    assert np.array_equal(loaded.vertices, original.vertices)
    assert np.array_equal(loaded.faces, original.faces)
    assert loaded.surface == original.surface
    re_embedded = canonical.embed(loaded.surface,
                                  canonical.chart(loaded.surface, loaded.vertices))
    assert np.max(np.abs(re_embedded - loaded.vertices)) < 1e-12
    # A second write of the loaded mesh is byte-identical.
    path2 = tmp_path / "again.smesh"
    write_mesh(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_read_mesh_infers_torus_params(tmp_path, torus16):
    path = tmp_path / "t.smesh"
    write_mesh(torus16, path)
    loaded = read_mesh(path)
    assert loaded.surface is not None and loaded.surface.kind == "clifford"
    params = canonical.chart(loaded.surface, loaded.vertices)
    re_embedded = canonical.embed(canonical.clifford_torus(), params)
    assert np.max(np.abs(re_embedded - loaded.vertices)) < 1e-12


# Each surface's level flag, and the coordinate and base point of the trial
# functions sampled on it.
_READ_BACK = {
    "clifford": ("--resolution", ["--coord", "3", "--p0=2.1,6.2"]),
    "sphere": ("--subdiv", ["--coord", "2", "--p0=0.48,0.6,0.64,0.0"]),
}


@pytest.mark.parametrize("kind, level", [("clifford", 3), ("clifford", 16),
                                         ("clifford", 64), ("sphere", 0),
                                         ("sphere", 2), ("sphere", 4)],
                         ids=["torus3", "torus16", "torus64", "sphere0",
                              "sphere2", "sphere4"])
def test_generated_mesh_equals_its_read_back(kind, level, tmp_path):
    # A mesh holds only what its SMESH file holds, so reading the file back
    # gives the generated mesh field for field, and every command that
    # samples a trial function gives the same bytes from --surface and
    # from --mesh.
    generated = generate(canonical.CanonicalSurface(kind, 2), level)
    path = tmp_path / "m.smesh"
    write_mesh(generated, path)
    loaded = read_mesh(path)
    for field in dataclasses.fields(TriMesh):
        ours, theirs = getattr(generated, field.name), getattr(loaded, field.name)
        if isinstance(ours, np.ndarray):
            assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), field.name
            assert ours.tobytes() == theirs.tobytes(), field.name
        else:
            assert ours == theirs, field.name
    flag, trial = _READ_BACK[kind]
    outputs = {}
    for source, argv in (("surface", ["--surface", kind, flag, str(level)]),
                         ("mesh", ["--mesh", str(path)])):
        files = [tmp_path / f"{source}-{name}" for name in
                 ("sweep.csv", "profiles.csv", "rayleigh.txt")]
        assert cli.main(["sweep", *argv, *trial, "--out", str(files[0]),
                         "--profiles", str(files[1])]) == 0
        assert cli.main(["rayleigh", *argv, *trial, "--beta", "4",
                         "--out", str(files[2])]) == 0
        outputs[source] = [f.read_bytes() for f in files]
    assert outputs["surface"] == outputs["mesh"]


def test_read_mesh_error_paths(tmp_path):
    good = tmp_path / "ico.smesh"
    write_mesh(generate_sphere(0), good)
    lines = good.read_text().splitlines()

    bad_magic = tmp_path / "a.smesh"
    bad_magic.write_text("\n".join(["NOPE 4"] + lines[1:]) + "\n")
    with pytest.raises(MeshError):
        read_mesh(bad_magic)

    bad_vertex = tmp_path / "b.smesh"
    corrupted = list(lines)
    corrupted[3] = "0.1 0.2 x 0.0"
    bad_vertex.write_text("\n".join(corrupted) + "\n")
    with pytest.raises(MeshError, match="vertex coordinate"):
        read_mesh(bad_vertex)

    bad_index = tmp_path / "c.smesh"
    corrupted = list(lines)
    corrupted[-1] = "0 1 99"
    bad_index.write_text("\n".join(corrupted) + "\n")
    with pytest.raises(MeshError, match="out of range"):
        read_mesh(bad_index)

    truncated = tmp_path / "d.smesh"
    truncated.write_text("\n".join(lines[:8]) + "\n")
    with pytest.raises(MeshError):
        read_mesh(truncated)

    with pytest.raises((MeshError, OSError)):
        read_mesh(tmp_path / "missing.smesh")

    comments_only = tmp_path / "e.smesh"
    comments_only.write_text("# no content\n\n")
    assert _read_error(comments_only) == f"{comments_only}: empty mesh file"

    header_only = tmp_path / "f.smesh"
    header_only.write_text(lines[0] + "\n")
    assert _read_error(header_only) == f"{header_only}: missing count line"


# ---------------------------------------------------------------------------
# Loop references for the vectorized mesh bookkeeping.  These are the
# edge-by-edge versions validate and _split_edges replaced; the vectorized
# code must name the same edge in every error and number midpoints the same.
# ---------------------------------------------------------------------------


def _validate_reference(m):
    v, f = m.vertices, m.faces
    norms = np.linalg.norm(v, axis=1)
    bad = np.nonzero(np.abs(norms - 1.0) > 1e-12)[0]
    if bad.size:
        raise MeshError(f"off-sphere vertex {bad[0]} (norm {norms[bad[0]]:.12g})")
    if f.min(initial=0) < 0 or f.max(initial=-1) >= len(v):
        raise MeshError("face index out of range")
    if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])):
        raise MeshError("degenerate face (repeated vertex)")
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
    directed = set()
    undirected = {}
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
    if m.surface is not None:
        expected = 0 if m.surface.kind == "clifford" else 2
        if euler != expected:
            raise MeshError(f"Euler characteristic {euler}, expected {expected}")


def _split_edges_reference(vertices, faces):
    cache = {}
    new_pts = []
    base = len(vertices)

    def midpoint(a, b):
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
    return np.concatenate([vertices, np.array(new_pts)], axis=0), out


def _outcome(check, m):
    try:
        check(m)
    except MeshError as exc:
        return str(exc)
    return None


def _corruptions(m, rng):
    """Seeded structural corruptions of a closed, oriented mesh."""
    f = m.faces
    nf, nv = len(f), m.vertex_count
    i, j = (int(t) for t in rng.choice(nf, size=2, replace=False))
    flipped = f.copy()
    flipped[i] = flipped[i][::-1]
    yield "flipped face", flipped
    yield "dropped face", np.delete(f, i, axis=0)
    yield "duplicated face", np.insert(f, j, f[i], axis=0)
    shared = f.copy()
    a, b = f[i, 0], f[i, 1]
    others = np.setdiff1d(np.arange(nv), f[i])
    shared[j] = (a, b, int(rng.choice(others)))
    yield "shared directed edge", shared
    # replace r in face j = (p, q, r) by another neighbour of q, so the
    # undirected edge {q, s} is used by three faces
    swapped = f.copy()
    p, q, r = (int(t) for t in np.roll(f[j], -int(rng.integers(3))))
    ring = np.unique(f[np.any(f == q, axis=1)])
    swapped[j] = np.roll((p, q, int(rng.choice(np.setdiff1d(ring, (p, q, r))))),
                         int(rng.integers(3)))
    yield "swapped index", swapped


@pytest.mark.parametrize("name", ["torus16", "sphere2"])
def test_validate_matches_loop_reference(name, request):
    m = request.getfixturevalue(name)
    kinds = set()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for label, faces in _corruptions(m, rng):
            broken = TriMesh(m.vertices, faces, m.surface)
            expected = _outcome(_validate_reference, broken)
            assert expected is not None, (seed, label)
            assert _outcome(validate, broken) == expected, (seed, label)
            kinds.add(expected.split(" ")[0])
    # every failure of the edge scan is exercised
    assert kinds == {"non-manifold", "inconsistent", "boundary"}


def test_validate_matches_loop_reference_on_valid_meshes(torus16, sphere2):
    for m in (torus16, sphere2, generate_torus(17)):
        assert _outcome(validate, m) is None
        assert _outcome(_validate_reference, m) is None
    wrong_tag = TriMesh(sphere2.vertices, sphere2.faces, canonical.clifford_torus())
    assert _outcome(validate, wrong_tag) == _outcome(_validate_reference, wrong_tag)
    assert "Euler characteristic 2" in _outcome(validate, wrong_tag)


def test_generate_sphere_matches_loop_reference():
    verts = mesh._ICO_VERTS / np.linalg.norm(mesh._ICO_VERTS, axis=1, keepdims=True)
    faces = mesh._ICO_FACES
    for level in range(6):
        direct = generate_sphere(level)
        assert np.array_equal(direct.faces, faces)
        assert np.array_equal(direct.vertices[:, :3], verts)
        verts, faces = _split_edges_reference(verts, faces)
        verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)


@pytest.mark.parametrize("name", ["torus16", "sphere2"])
def test_split_edges_matches_loop_reference(name, request):
    m = request.getfixturevalue(name)
    verts, faces = mesh._split_edges(m.vertices, m.faces)
    ref_verts, ref_faces = _split_edges_reference(m.vertices, m.faces)
    assert faces.dtype == ref_faces.dtype
    assert np.array_equal(faces, ref_faces)
    assert np.array_equal(verts, ref_verts)


# ---------------------------------------------------------------------------
# Stable bytes.  The SMESH and --profiles formats are part of the interface;
# these digests were taken before the writers were vectorized (numpy 2.4,
# x86-64).  A platform whose cos/sin/exp round differently changes them.
# The torus profiles digest is that of the mesh read back from its SMESH
# file: a generated torus takes its angles from its vertices, as a read one
# always has, and no longer from the exact grid angles.
# ---------------------------------------------------------------------------

GOLDEN_SMESH = {
    "torus16": "9fbf0535ab9cea6716255595090e8680c19f767d095e1697deec85456fe6a9b6",
    "sphere2": "30cba52baa73d92bfed7fbdea5e2ef99db7150f7dcdc970094365770b417a2c3",
}
GOLDEN_PROFILES = {
    "torus16": (["--surface", "clifford", "--resolution", "16",
                 "--coord", "3", "--p0", "0.3,1.7"],
                "b8fb0865e5e874e9128904a9ccc668860ba3086a33034802188be1472f59775d"),
    "sphere2": (["--surface", "sphere", "--subdiv", "2",
                 "--coord", "2", "--p0", "0.48,0.6,0.64,0.0"],
                "af9a6579634e7f916f71c74d50ea275fd65159e8b892a912d715df2570c9f211"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SMESH))
def test_write_mesh_golden_bytes(name, request, tmp_path):
    path = tmp_path / "m.smesh"
    write_mesh(request.getfixturevalue(name), path)
    assert _sha256(path) == GOLDEN_SMESH[name]


def _profiles_sha256(argv, tmp_path):
    profiles = tmp_path / "profiles.csv"
    rc = cli.main(["sweep"] + argv + ["--out", str(tmp_path / "sweep.csv"),
                                      "--profiles", str(profiles)])
    assert rc == 0
    return _sha256(profiles)


@pytest.mark.parametrize("name", sorted(GOLDEN_PROFILES))
def test_sweep_profiles_golden_bytes(name, tmp_path):
    argv, digest = GOLDEN_PROFILES[name]
    assert _profiles_sha256(argv, tmp_path) == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_PROFILES))
def test_sweep_profiles_golden_bytes_pooled(name, tmp_path, forked_profiles):
    argv, digest = GOLDEN_PROFILES[name]
    assert _profiles_sha256(argv, tmp_path) == digest


def _float_lines(values):
    return _text.rows([_text.float_text(values)]).decode("ascii").splitlines()


def test_float_text_matches_repr(monkeypatch):
    monkeypatch.setattr(_text, "_FEW", 0)  # the kernel, also for a few values
    values = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 0.1, 2.0, 0.1, -0.0]
    assert _float_lines(values) == list(map(repr, values))
    grid = np.array(values[:6]).reshape(2, 3)
    assert _float_lines(grid) == list(map(repr, grid.ravel().tolist()))


# ---------------------------------------------------------------------------
# read_mesh error paths: each message names the file line of the first
# offending content line, as the line-by-line reader always has.
# ---------------------------------------------------------------------------


def _ico_lines(tmp_path):
    good = tmp_path / "ico.smesh"
    write_mesh(generate_sphere(0), good)
    return good.read_text().splitlines()  # 2 header, 12 vertex, 20 face lines


def _read_error(path):
    with pytest.raises(MeshError) as info:
        read_mesh(path)
    return str(info.value)


def test_read_mesh_crlf_line_endings(tmp_path):
    lines = _ico_lines(tmp_path)
    path = tmp_path / "crlf.smesh"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("ascii"))
    loaded = read_mesh(path)
    assert np.array_equal(loaded.vertices, generate_sphere(0).vertices)
    lines[20] = "0 1"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("ascii"))
    assert _read_error(path) == f"{path}:21: face line must have 3 indices"


def test_read_mesh_comments_and_blanks_keep_line_numbers(tmp_path):
    lines = _ico_lines(tmp_path)
    original = lines[5]
    lines[5] = "0.1 0.2 x 0.0"
    padded = ["# leading comment", ""]
    for k, line in enumerate(lines):
        padded += [line, "   ", "  # note %d" % k] if k % 3 == 0 else [line]
    path = tmp_path / "padded.smesh"
    path.write_text("\n".join(padded) + "\n")
    bad = padded.index("0.1 0.2 x 0.0")
    assert _read_error(path) == f"{path}:{bad + 1}: unparsable vertex coordinate"
    # padding and odd whitespace inside a data line are fine
    padded[bad] = "\t" + "  ".join(original.split())
    path.write_text("\n".join(padded) + "\n")
    assert np.array_equal(read_mesh(path).vertices, generate_sphere(0).vertices)


@pytest.mark.parametrize("row, text, reason", [
    (4, "{} # note", "vertex line must have 4 coordinates"),
    (20, "{} # note", "face line must have 3 indices"),
    (20, "0 1.0 2", "unparsable face index"),
    (20, "0 1 12", "face index out of range"),
    (7, "0.5 0.5 0.5", "vertex line must have 4 coordinates"),
    (1, "x 20", "count line must be two integers"),
    (1, "2 1", "vertex/face counts too small for a closed mesh"),
    (7, "{}\xa0", "non-ASCII byte"),
])
def test_read_mesh_rejects_bad_line(tmp_path, row, text, reason):
    lines = _ico_lines(tmp_path)
    lines[row] = text.format(lines[row])
    path = tmp_path / "bad.smesh"
    path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    assert _read_error(path) == f"{path}:{row + 1}: {reason}"


def test_read_mesh_first_bad_line_wins(tmp_path):
    lines = _ico_lines(tmp_path)
    lines[16] = "0 1 99"
    lines[25] = "0 x 2"
    path = tmp_path / "two.smesh"
    path.write_text("\n".join(lines) + "\n")
    assert _read_error(path) == f"{path}:17: face index out of range"
    every_short = lines[:2] + [" ".join(t.split()[:3]) for t in lines[2:14]] + lines[14:]
    path.write_text("\n".join(every_short) + "\n")
    assert _read_error(path) == f"{path}:3: vertex line must have 4 coordinates"


def test_read_mesh_accepts_python_digit_separators(tmp_path):
    # float() and int() accept '0_0' and '1_0'; the reader always has.
    lines = _ico_lines(tmp_path)
    lines[2] = lines[2].rsplit(" ", 1)[0] + " 0_0"
    lines[14] = "0 1_1 5"
    path = tmp_path / "sep.smesh"
    path.write_text("\n".join(lines) + "\n")
    loaded = read_mesh(path)
    assert np.array_equal(loaded.vertices, generate_sphere(0).vertices)
    assert np.array_equal(loaded.faces, generate_sphere(0).faces)
    lines[3] = "1_0 " + lines[3].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    assert _read_error(path).startswith("off-sphere vertex 1 (norm 10.")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_read_mesh_names_a_huge_vertex_norm_without_overflow(tmp_path):
    # The squares of 1e200 overflow, the norm does not: scaled by the
    # largest coordinate, it comes out finite, with no numpy warning.
    lines = _ico_lines(tmp_path)
    lines[2] = "1e200 0.0 0.0 0.0"
    path = tmp_path / "huge.smesh"
    path.write_text("\n".join(lines) + "\n")
    assert _read_error(path) == "off-sphere vertex 0 (norm 1e+200)"
    # a norm beyond the largest float is inf, still without a warning
    lines[2] = "1.5e308 1.5e308 0.0 0.0"
    path.write_text("\n".join(lines) + "\n")
    assert _read_error(path) == "off-sphere vertex 0 (norm inf)"


# ---------------------------------------------------------------------------
# read_mesh parses the content lines of an ASCII file from its bytes, in two
# numpy blocks; a file that parse declines is read one line at a time.
# Either way the outcome is the per-line reader's: the same mesh bits, or
# the same error on the same line.
# ---------------------------------------------------------------------------


def _outcome_of_read(path):
    try:
        m = read_mesh(path)
    except MeshError as exc:
        return str(exc)
    return m.vertices.tobytes(), m.faces.tobytes(), m.surface


def _per_line_outcome(path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(mesh, "_read_bytes", lambda data: None)
        return _outcome_of_read(path)


def _split_fields(lines):
    # a 3-field vertex line followed by a 5-field one: 8 fields in 2 lines
    lines[5] = lines[5] + " " + lines[4].rsplit(" ", 1)[1]
    lines[4] = lines[4].rsplit(" ", 1)[0]
    return "\n".join(lines) + "\n"


def _swap_line(lines):
    # one vertex line more and one face line fewer: the count still matches
    return "\n".join(lines[:14] + lines[13:-1]) + "\n"


_EDITS = {
    "plain": (lambda lines: "\n".join(lines) + "\n", True),
    "split fields": (_split_fields, False),
    "tabs and trailing spaces": (
        lambda lines: "".join("\t".join(t.split()) + " \t \n" for t in lines), True),
    "one crlf line": (
        lambda lines: "\n".join(t + "\r" * (k == 7) for k, t in enumerate(lines)) + "\n",
        True),
    "a cr inside a line": (
        lambda lines: "\n".join(t.replace(" ", "\r", 1) if k == 7 else t
                                for k, t in enumerate(lines)) + "\n", False),
    "no final newline": (lambda lines: "\n".join(lines), True),
    "missing line": (lambda lines: "\n".join(lines[:-1]) + "\n", False),
    "extra line": (lambda lines: "\n".join(lines + lines[-1:]) + "\n", False),
    "swapped line": (_swap_line, False),
    "blank line": (lambda lines: "\n".join(lines[:9] + [""] + lines[9:]) + "\n", True),
    "blank last line": (lambda lines: "\n".join(lines + ["  "]) + "\n", True),
    "three coordinates everywhere": (
        lambda lines: "\n".join(lines[:2] + [t.rsplit(" ", 1)[0] for t in lines[2:14]]
                                + lines[14:]) + "\n", False),
    "four indices everywhere": (
        lambda lines: "\n".join(lines[:14] + [t + " 0" for t in lines[14:]]) + "\n", False),
    # numpy's reader takes a no-break space as a field separator
    "non-ascii space": (
        lambda lines: "\n".join(lines[:7] + [lines[7].replace(" ", "\xa0")] + lines[8:])
        + "\n", False),
}


@pytest.mark.parametrize("name", sorted(_EDITS))
def test_read_mesh_bytes_reader_gives_the_per_line_outcome(tmp_path, monkeypatch, name):
    edit, fast = _EDITS[name]
    path = tmp_path / "edited.smesh"
    path.write_bytes(edit(_ico_lines(tmp_path)).encode("latin-1"))
    assert (mesh._read_bytes(path.read_bytes()) is not None) == fast
    assert _outcome_of_read(path) == _per_line_outcome(path, monkeypatch)


@pytest.mark.parametrize("where, token", [
    ("vertex", t) for t in ["+0.0", "-0.0", "0e0", "0_0", "+1.0", "1e0", "inf", "nan",
                            "-inf", "0x1p0", "1_0", "0.0.0"]
] + [
    ("face", t) for t in ["+11", "011", "1_1", "11.0", "1e1", "0xb", "-11", "inf"]
])
def test_read_mesh_tokens_give_the_per_line_outcome(tmp_path, monkeypatch, where, token):
    lines = _ico_lines(tmp_path)
    if where == "vertex":  # the fourth coordinate of every vertex is 0.0
        lines[6] = lines[6].rsplit(" ", 1)[0] + " " + token
    else:  # in place of the 11 in face 6, (5, 11, 4)
        assert lines[20] == "5 11 4"
        lines[20] = "5 %s 4" % token
    path = tmp_path / "token.smesh"
    path.write_text("\n".join(lines) + "\n")
    assert _outcome_of_read(path) == _per_line_outcome(path, monkeypatch)


@settings(max_examples=20, deadline=None)
@given(torus=st.booleans(), level=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_write_then_read_gives_the_mesh_back_bit_for_bit(tmp_path_factory, torus, level,
                                                         seed, newline):
    # A random rotation of R^4 gives every coordinate arbitrary bits; a random
    # face order and a cyclic turn of each face keep the mesh closed and
    # oriented.
    rng = np.random.default_rng(seed)
    base = generate_torus(3 + 2 * level) if torus else generate_sphere(level)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    faces = np.array([np.roll(f, int(k)) for f, k in
                      zip(base.faces[rng.permutation(base.face_count)],
                          rng.integers(0, 3, base.face_count))])
    original = TriMesh(base.vertices @ q, faces)
    path = tmp_path_factory.mktemp("roundtrip") / "m.smesh"
    write_mesh(original, path)
    loaded = read_mesh(path)
    assert loaded.vertices.tobytes() == original.vertices.tobytes()
    assert loaded.faces.tobytes() == original.faces.tobytes()
    # The same file with the drawn line ends and comment and blank lines
    # (empty or whitespace) before random lines is still read by numpy.
    padded = ["# padded"]
    for line, pad in zip(path.read_text().splitlines(),
                         rng.integers(0, 4, 2 + len(faces) + len(base.vertices))):
        padded += [["  # note"], [""], [" \t"], []][pad] + [line]
    path.write_bytes((newline.join(padded) + newline).encode("ascii"))
    assert mesh._read_bytes(path.read_bytes()) is not None
    loaded = read_mesh(path)
    assert loaded.vertices.tobytes() == original.vertices.tobytes()
    assert loaded.faces.tobytes() == original.faces.tobytes()
