"""Command line front end: mesh | spectrum | rayleigh | sweep | verify | oracle.

Every command is deterministic for a fixed seed and prints floats with
round-trip precision, so reruns produce byte-identical output.  Timing
goes to stderr only.  Exit codes: 0 success (or all checks passed), 1
verification failure, 2 usage or I/O error, 3 solver failure (among them
non-convergence).

A config file given with --config holds one 'key = value' pair per line
(the keys are the long flag names without dashes); explicit flags win.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import canonical
from .eigen import NonConvergence, SolverError, _check_seed, _check_tol, solve_lowest
from .fem import (
    assemble,
    coordinate_function,
    project_mean_zero,
    rayleigh,
)
from .mesh import MeshError, generate, mesh_stats, read_mesh, write_mesh
from .trial import (
    _check_betas,
    build_truncation,
    orthogonality_defect,
    sweep_beta,
    sweep_csv,
    write_profiles,
)
from .verify import render_report, report_csv, run_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

# --surface value (also its canonical surface kind) -> level flag, the name
# usage messages give the surface, default level of a generated mesh.  The
# plural flag (--resolutions, --subdivs) lists verify's levels.
_LEVELS = {
    "clifford": ("resolution", "torus", 64),
    "sphere": ("subdiv", "sphere", 4),
}


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


def _surface(args, n=2):
    """The canonical surface of --surface; n is the sphere dimension (--n)."""
    try:
        return canonical.CanonicalSurface(args.surface, n)
    except ValueError as exc:
        raise UsageError("--n: %s" % exc)


def _level(args, plural=""):
    """Name and value of the level flag of --surface, singular or plural
    (plural="s"); the other surface's flag is a usage error."""
    flag = _LEVELS[args.surface][0] + plural
    for other, name, _ in _LEVELS.values():
        if other + plural != flag and getattr(args, other + plural) is not None:
            raise UsageError("--%s%s applies to the %s; use --%s"
                             % (other, plural, name, flag))
    return "--" + flag, getattr(args, flag)


def _load_mesh(args):
    """The mesh read from --mesh, or generated for --surface at its level."""
    if getattr(args, "mesh", None):
        if args.surface is not None:
            raise UsageError("give either --mesh or --surface, not both")
        for flag, _, _ in _LEVELS.values():
            if getattr(args, flag) is not None:
                raise UsageError("--%s applies to --surface, not to --mesh" % flag)
        return read_mesh(args.mesh)
    if args.surface is None:
        raise UsageError("a mesh source is required: --mesh or --surface")
    flag, level = _level(args)
    try:
        return generate(_surface(args),
                        _LEVELS[args.surface][2] if level is None else level)
    except MeshError as exc:
        raise UsageError("%s: %s" % (flag, exc))


def _parse_floats(text, flag):
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise UsageError("%s: expected a comma-separated list of numbers" % flag)


def _parse_ints(text, flag):
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise UsageError("%s: expected a comma-separated list of integers" % flag)


def _base_point(args, surface):
    """--p0 as a point of ``surface``, or the surface's own base point."""
    if not args.p0:
        return surface.base_point
    values = _parse_floats(args.p0, "--p0")
    expected = len(surface.base_point)
    if len(values) != expected:
        raise UsageError(
            "--p0: expected %d comma-separated components for this surface" % expected
        )
    if not np.all(np.isfinite(values)):
        raise UsageError("--p0: components must be finite")
    return np.array(values)


def _str2bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError("expected true or false")


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


# ---------------------------------------------------------------- commands


def cmd_mesh(args):
    mesh = _load_mesh(args)
    stats = mesh_stats(mesh)
    if args.out:
        write_mesh(mesh, args.out)
    lines = [
        "surface: %s" % mesh.surface.kind,
        "vertices: %d" % stats.vertex_count,
        "faces: %d" % stats.face_count,
        "euler: %d" % stats.euler_char,
        "max-edge: %s" % repr(stats.max_edge),
        "area: %s" % repr(stats.total_area),
    ]
    if args.out:
        lines.append("written: %s" % args.out)
    print("\n".join(lines))
    return EXIT_OK


def cmd_spectrum(args):
    _check_tol(args.tol)
    _check_seed(args.seed)
    mesh = _load_mesh(args)
    if args.k < 1:
        raise UsageError("--k must be at least 1")
    ops = assemble(mesh)
    spectrum = solve_lowest(ops, args.k, tol=args.tol,
                            deflate_constants=args.deflate, seed=args.seed)
    lines = [
        "EIGENMIN-SPECTRUM 1",
        "surface: %s" % (mesh.surface.kind if mesh.surface else "unknown"),
        "dim: %d" % ops.dim,
        "k: %d" % args.k,
        "tolerance: %s" % repr(spectrum.tolerance),
        "deflated: %s" % ("true" if spectrum.deflated else "false"),
        "iterations: %d" % spectrum.iterations,
        "eigenvalue residual",
    ]
    for lam, res in zip(spectrum.eigenvalues, spectrum.residuals):
        lines.append("%s %s" % (repr(float(lam)), repr(float(res))))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_rayleigh(args):
    mesh = _load_mesh(args)
    if mesh.surface is None:
        raise UsageError("rayleigh needs a canonical mesh (unrecognized vertices)")
    if args.beta is None:
        if args.p0 is not None:
            raise UsageError("--p0 applies only with --beta")
        u = coordinate_function(mesh, args.coord)
    else:
        u = build_truncation(mesh, args.coord, _base_point(args, mesh.surface),
                             args.beta)
    ops = assemble(mesh)
    lines = [
        "surface: %s" % mesh.surface.kind,
        "coordinate: %d" % args.coord,
        "beta: %s" % ("none" if args.beta is None else repr(args.beta)),
        "rayleigh-raw: %s" % repr(rayleigh(ops, u)),
        "rayleigh-projected: %s" % repr(rayleigh(ops, project_mean_zero(ops, u))),
        "orthogonality-defect: %s" % repr(orthogonality_defect(ops, u)),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args):
    mesh = _load_mesh(args)
    if mesh.surface is None or mesh.param_coords is None:
        raise UsageError("sweep needs a canonical mesh (unrecognized vertices)")
    betas = _parse_floats(args.betas, "--betas")
    try:
        unique = _check_betas(sorted(set(betas)))
    except ValueError as exc:
        raise UsageError("--betas: %s" % exc)
    if len(unique) != len(betas):
        print("warning: duplicate beta values removed", file=sys.stderr)
    p0 = _base_point(args, mesh.surface)
    ops = assemble(mesh)
    records = sweep_beta(mesh, ops, args.coord, p0, unique)
    _emit(sweep_csv(records), args.out)
    if args.profiles:
        write_profiles(args.profiles, mesh, args.coord, p0, unique)
    return EXIT_OK


def cmd_verify(args):
    flag, levels = _level(args, "s")
    report = run_all(
        _surface(args),
        resolutions=None if levels is None else _parse_ints(levels, flag),
        betas=None if args.betas is None else _parse_floats(args.betas, "--betas"),
        tol=args.tol, solver_tol=args.solver_tol, seed=args.seed)
    for check in report.checks:
        status = "ok  " if check.passed else "FAIL"
        print("%s %-14s measured=%s expected=%s" % (
            status, check.id, repr(check.measured), repr(check.expected)))
    print("overall: %s" % ("pass" if report.overall_pass else "fail"))
    for cid, seconds in report.wall_times.items():
        print("time %-14s %.3fs" % (cid, seconds), file=sys.stderr)
    if args.out:
        _emit(render_report(report), args.out)
    if args.csv:
        _emit(report_csv(report), args.csv)
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAIL


def cmd_oracle(args):
    surface = _surface(args, args.n)
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    lines = [
        "surface: %s" % surface.kind,
        "intrinsic-dim: %d" % surface.intrinsic_dim,
        "area: %s" % repr(canonical.exact_area(surface)),
        "second-fundamental-norm-sq: %s"
        % repr(canonical.second_fundamental_norm_sq(surface)),
        "volume-lower-bound: %s"
        % repr(canonical.volume_lower_bound(surface.intrinsic_dim)),
        "eigenvalue multiplicity",
    ]
    for lam, mult in canonical.exact_spectrum(surface, args.count):
        lines.append("%s %d" % (repr(float(lam)), mult))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file path")
    common.add_argument("--config", default=None,
                        help="key = value file of flag defaults; flags win")
    # the eigensolver flag of spectrum and verify
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--seed", type=int, default=0,
                        help="solver start-vector seed (default 0)")
    surfaces = list(_LEVELS)
    levels = argparse.ArgumentParser(add_help=False)
    for flag, name, default in _LEVELS.values():
        levels.add_argument("--" + flag, type=int, default=None,
                            help="%s mesh level (default %d)" % (name, default))
    # the mesh source of spectrum, rayleigh and sweep
    source = argparse.ArgumentParser(add_help=False, parents=[levels])
    source.add_argument("--mesh", default=None, help="SMESH file to load")
    source.add_argument("--surface", default=None, choices=surfaces)

    parser = argparse.ArgumentParser(
        prog="eigenmin",
        description="Desk-scale spectral checks for minimal hypersurfaces"
                    " of the unit sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", parents=[common, levels],
                       help="generate a canonical mesh and print its stats")
    p.add_argument("--surface", required=True, choices=surfaces)

    p = sub.add_parser("spectrum", parents=[common, solver, source],
                       help="solve for the lowest eigenvalues")
    p.add_argument("--k", type=int, default=6, help="eigenpair count (default 6)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="residual certificate (default 1e-8)")
    p.add_argument("--deflate", type=_str2bool, default=True,
                   help="remove the constant mode first (default true)")

    p = sub.add_parser("rayleigh", parents=[common, source],
                       help="Rayleigh quotient of a coordinate or truncation")
    p.add_argument("--coord", type=int, default=1,
                   help="1-based ambient coordinate (default 1)")
    p.add_argument("--beta", type=float, default=None,
                   help="truncation strength; omit for the plain coordinate")
    p.add_argument("--p0", default=None,
                   help="base point of the truncation: torus 'theta,phi',"
                        " sphere 'x1,x2,x3,x4'")

    p = sub.add_parser("sweep", parents=[common, source],
                       help="sweep beta and emit the sweep CSV")
    p.add_argument("--coord", type=int, default=1)
    p.add_argument("--p0", default=None)
    p.add_argument("--betas", default="1,2,4,8,16,32,64,128,256,512,1024")
    p.add_argument("--profiles", default=None,
                   help="also write per-vertex decay profiles to this CSV")

    p = sub.add_parser("verify", parents=[common, solver],
                       help="run the full check suite; exit 1 on failure")
    p.add_argument("--surface", required=True, choices=surfaces)
    for flag, name, _ in _LEVELS.values():
        p.add_argument("--%ss" % flag, default=None,
                       help="comma-separated %s mesh levels" % name)
    p.add_argument("--betas", default=None)
    p.add_argument("--tol", type=float, default=1.0,
                   help="scale on every check tolerance, finite and >= 0"
                        " (default 1.0)")
    p.add_argument("--solver-tol", type=float, default=1e-8)
    p.add_argument("--csv", default=None, help="also write the CSV report here")

    p = sub.add_parser("oracle", parents=[common],
                       help="print closed-form values for a surface")
    p.add_argument("--surface", required=True, choices=surfaces)
    p.add_argument("--n", type=int, default=2,
                   help="surface dimension for the oracle; the torus has 2"
                        " (default 2)")
    p.add_argument("--count", type=int, default=5,
                   help="number of eigenvalue levels (default 5)")

    return parser


def _read_config(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise UsageError("--config: %s" % exc)
    pairs = []
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        for sep in ("=", ":"):
            if sep in text:
                key, _, value = text.partition(sep)
                pairs.append((key.strip(), value.strip()))
                break
        else:
            raise UsageError("--config: line %d is not 'key = value'" % lineno)
    return pairs


def _inject_config(argv):
    """Splice config pairs in right after the subcommand so real flags win."""
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 >= len(argv):
            raise UsageError("--config needs a file path")
        path = argv[idx + 1]
    else:
        prefixed = [a for a in argv if a.startswith("--config=")]
        if not prefixed:
            return argv
        path = prefixed[0].split("=", 1)[1]
    pairs = _read_config(path)
    flags = []
    for key, value in pairs:
        flags += ["--" + key.replace("_", "-"), value]
    return argv[:1] + flags + argv[1:]


_DISPATCH = {
    "mesh": cmd_mesh,
    "spectrum": cmd_spectrum,
    "rayleigh": cmd_rayleigh,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _inject_config(list(argv))
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        what = "did not converge" if isinstance(exc, NonConvergence) else "failed"
        print("error: solver %s: %s" % (what, exc), file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
