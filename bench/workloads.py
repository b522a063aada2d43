"""The benchmark's workloads: seed -> CLI argv, and the correctness gate of each op.

A workload is a fixed list of CLI invocations (ops).  In ``mesh-io`` the
workload seed sets the sweep ``--coord`` and ``--p0``; the program receives
only the generated argv.  Every op has a gate that checks its output.  Gates
are never timed.

The solver ``--seed`` stays at the CLI default, 0.  The LOBPCG iteration
count depends on it (sphere subdivision 4 takes 300 or 450 iterations,
torus resolution 128 between 450 and 750), so a seed-derived solver seed
spreads run times by more than any regression bound.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from eigenmin import canonical, mesh

# (surface, level) of every op.  "spectrum-fine" uses sphere subdivision 4:
# at subdivision 5 the solver raises NonConvergence (a known defect), which
# the "spectrum-defect" workload keeps measurable as a failed op.
VERIFY_LEVELS = {"torus": "16,32,64", "sphere": "2,3,4"}
SPECTRUM_LEVELS = {"torus": 128, "sphere": 4}
DEFECT_LEVELS = {"torus": 128, "sphere": 5}
MESH_IO_LEVELS = {"torus": 256, "sphere": 6}
SURFACE_FLAG = {"torus": "clifford", "sphere": "sphere"}
LEVEL_FLAG = {"torus": "--resolution", "sphere": "--subdiv"}
# eigenvalue 2 has multiplicity 4 on the Clifford torus and 3 on S^2
LAMBDA1_MULTIPLICITY = {"torus": 4, "sphere": 3}
SWEEP_LIMIT_BETA = 1024.0


@dataclass
class Op:
    """One CLI invocation and the gate that checks what it produced.

    ``gate(rc, stdout)`` returns None when the output is correct and a
    one-line reason otherwise.  ``outputs`` are the files the op writes.
    """

    argv: list
    gate: Callable
    outputs: list = field(default_factory=list)


def _exit_error(rc):
    return None if rc == 0 else "exit code %r" % (rc,)


def verify_gate(report: Path, csv: Path):
    """overall: pass, and report + CSV bytes identical across passes."""
    first = {}

    def gate(rc, stdout):
        if rc != 0 or "overall: pass" not in stdout.splitlines():
            return "verify did not pass (exit code %r)" % (rc,)
        produced = (report.read_bytes(), csv.read_bytes())
        if first.setdefault("bytes", produced) != produced:
            return "report or CSV bytes differ from the first pass"
        return None

    return gate


def spectrum_gate(surface: str):
    """Every residual <= the printed tolerance; the lowest eigenvalues sit
    within 1% of 2 with the surface's multiplicity."""
    multiplicity = LAMBDA1_MULTIPLICITY[surface]

    def gate(rc, stdout):
        if rc != 0:
            return _exit_error(rc)
        lines = stdout.splitlines()
        tol = float(next(l for l in lines if l.startswith("tolerance:")).split()[1])
        rows = lines[lines.index("eigenvalue residual") + 1:]
        values = np.array([[float(t) for t in row.split()] for row in rows])
        lam, res = values[:, 0], values[:, 1]
        if np.any(res > tol):
            return "residual %.3e above tolerance %.1e" % (res.max(), tol)
        near = np.abs(lam - 2.0) <= 0.02
        if int(near.sum()) != multiplicity or not near[:multiplicity].all():
            return "lambda_1 cluster %s, expected %d values within 1%% of 2" % (
                lam.tolist(), multiplicity)
        return None

    return gate


def mesh_gate(surface: str, level: int, path: Path):
    """The written SMESH reads back bit-equal to mesh.generate.

    The read-back runs on the first pass; later passes must write the same
    bytes, which then read back to the same mesh.
    """
    first = {}

    def gate(rc, stdout):
        if rc != 0:
            return _exit_error(rc)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if "digest" not in first:
            expected = mesh.generate(_canonical(surface), level)
            got = mesh.read_mesh(path)
            if not (np.array_equal(got.vertices, expected.vertices)
                    and np.array_equal(got.faces, expected.faces)):
                return "written mesh does not read back bit-equal"
            first["digest"] = digest
        if digest != first["digest"]:
            return "mesh bytes differ from the first pass"
        return None

    return gate


def sweep_gate(path: Path):
    """Projected Rayleigh quotient at beta = 1024 within 0.5% of 2."""

    def gate(rc, stdout):
        if rc != 0:
            return _exit_error(rc)
        header, *rows = path.read_text().splitlines()
        col = header.split(",").index("rayleigh_projected")
        by_beta = {float(r.split(",")[0]): float(r.split(",")[col]) for r in rows}
        rq = by_beta.get(SWEEP_LIMIT_BETA)
        if rq is None or abs(rq - 2.0) > 0.005 * 2.0:
            return "projected Rayleigh quotient %r at beta=1024" % (rq,)
        return None

    return gate


def _canonical(surface):
    return canonical.clifford_torus() if surface == "torus" else canonical.equatorial_sphere(2)


def _verify_ops(seed, workdir):
    ops = []
    for surface in ("torus", "sphere"):
        levels_flag = "--resolutions" if surface == "torus" else "--subdivs"
        report = workdir / ("report-%s.txt" % surface)
        csv = workdir / ("report-%s.csv" % surface)
        argv = ["verify", "--surface", SURFACE_FLAG[surface],
                levels_flag, VERIFY_LEVELS[surface], "--out", str(report), "--csv", str(csv)]
        ops.append(Op(argv, verify_gate(report, csv), [report, csv]))
    return ops


def _spectrum_ops(levels):
    return [
        Op(["spectrum", "--surface", SURFACE_FLAG[surface],
            LEVEL_FLAG[surface], str(levels[surface]), "--k", "6"],
           spectrum_gate(surface))
        for surface in ("torus", "sphere")
    ]


def _p0(surface, rng):
    if surface == "torus":
        return "%r,%r" % (rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi))
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
    v /= np.linalg.norm(v)
    return "%r,%r,%r,0.0" % tuple(float(x) for x in v)


def _mesh_io_ops(seed, workdir):
    rng = random.Random(seed)
    ops = []
    for surface in ("torus", "sphere"):
        level = MESH_IO_LEVELS[surface]
        smesh = workdir / ("%s.smesh" % surface)
        sweep = workdir / ("sweep-%s.csv" % surface)
        profiles = workdir / ("profiles-%s.csv" % surface)
        coord = rng.randint(1, 4 if surface == "torus" else 3)
        ops.append(Op(["mesh", "--surface", SURFACE_FLAG[surface],
                       LEVEL_FLAG[surface], str(level), "--out", str(smesh)],
                      mesh_gate(surface, level, smesh), [smesh]))
        ops.append(Op(["sweep", "--mesh", str(smesh), "--coord", str(coord),
                       "--p0=" + _p0(surface, rng), "--out", str(sweep),
                       "--profiles", str(profiles)],
                      sweep_gate(sweep), [sweep, profiles]))
    return ops


# name -> builder(seed, workdir) of the ops of one pass, in order.
WORKLOADS = {
    "verify-default": _verify_ops,
    "spectrum-fine": lambda seed, workdir: _spectrum_ops(SPECTRUM_LEVELS),
    "mesh-io": _mesh_io_ops,
    # not in BENCHMARK.json: every pass fails at sphere subdivision 5 today
    "spectrum-defect": lambda seed, workdir: _spectrum_ops(DEFECT_LEVELS),
}


def build_ops(workload: str, seed: int, workdir: Path) -> list:
    return WORKLOADS[workload](seed, Path(workdir))
