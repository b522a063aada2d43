"""Command line front end: mesh | spectrum | rayleigh | sweep | verify | oracle.

Every command is deterministic for a fixed seed and prints floats with
round-trip precision, so reruns produce byte-identical output.  Timing
goes to stderr only.  Exit codes: 0 success (or all checks passed), 1
verification failure, 2 usage or I/O error, 3 solver non-convergence.

A config file given with --config holds one 'key = value' pair per line
(the keys are the long flag names without dashes); explicit flags win.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys

import numpy as np

from . import canonical
from .eigen import NonConvergence, solve_lowest
from .fem import (
    assemble,
    coordinate_function,
    project_mean_zero,
    rayleigh,
)
from .mesh import (
    MeshError,
    generate,
    mesh_stats,
    read_mesh,
    repr_floats,
    write_mesh,
)
from .trial import (
    TruncationParams,
    _check_betas,
    _profile_columns,
    build_truncation,
    orthogonality_defect,
    sweep_beta,
    sweep_csv,
    truncation_profile,
)
from .verify import render_report, report_csv, run_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


def _surface(args):
    if args.surface == "clifford":
        return canonical.clifford_torus()
    return canonical.equatorial_sphere(2)


def _resolution(args, surface):
    """Pick the right granularity flag for the surface kind."""
    if surface.kind == "clifford":
        if getattr(args, "subdiv", None) is not None:
            raise UsageError("--subdiv applies to the sphere; use --resolution")
        return args.resolution if args.resolution is not None else 64
    if getattr(args, "resolution", None) is not None:
        raise UsageError("--resolution applies to the torus; use --subdiv")
    return args.subdiv if args.subdiv is not None else 4


def _generate(surface, res, flag):
    try:
        return generate(surface, res)
    except MeshError as exc:
        raise UsageError("%s: %s" % (flag, exc))


def _flag_name(surface):
    return "--resolution" if surface.kind == "clifford" else "--subdiv"


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


def _parse_point(text, surface):
    values = _parse_floats(text, "--p0")
    expected = len(surface.base_point)
    if len(values) != expected:
        raise UsageError(
            "--p0: expected %d comma-separated components for this surface" % expected
        )
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
    surface = _surface(args)
    res = _resolution(args, surface)
    mesh = _generate(surface, res, _flag_name(surface))
    stats = mesh_stats(mesh)
    if args.out:
        write_mesh(mesh, args.out)
    lines = [
        "surface: %s" % surface.kind,
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


def _load_mesh(args):
    if getattr(args, "mesh", None):
        if args.surface is not None:
            raise UsageError("give either --mesh or --surface, not both")
        return read_mesh(args.mesh)
    if args.surface is None:
        raise UsageError("a mesh source is required: --mesh or --surface")
    surface = _surface(args)
    res = _resolution(args, surface)
    return _generate(surface, res, _flag_name(surface))


def cmd_spectrum(args):
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
    ops = assemble(mesh)
    if args.beta is None:
        u = coordinate_function(mesh, args.coord)
        beta_line = "beta: none"
    else:
        p0 = (_parse_point(args.p0, mesh.surface) if args.p0
              else mesh.surface.base_point)
        try:
            params = TruncationParams(args.coord, p0, args.beta)
            u = build_truncation(mesh, params)
        except ValueError as exc:
            raise UsageError(str(exc))
        beta_line = "beta: %s" % repr(args.beta)
    try:
        raw = rayleigh(ops, u)
        projected = rayleigh(ops, project_mean_zero(ops, u))
        defect = orthogonality_defect(ops, u)
    except ValueError as exc:
        raise UsageError(str(exc))
    lines = [
        "surface: %s" % mesh.surface.kind,
        "coordinate: %d" % args.coord,
        beta_line,
        "rayleigh-raw: %s" % repr(raw),
        "rayleigh-projected: %s" % repr(projected),
        "orthogonality-defect: %s" % repr(defect),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args):
    mesh = _load_mesh(args)
    if mesh.surface is None or mesh.param_coords is None:
        raise UsageError("sweep needs a canonical mesh (unrecognized vertices)")
    surface = mesh.surface
    betas = _parse_floats(args.betas, "--betas")
    try:
        unique = _check_betas(sorted(set(betas)))
    except ValueError as exc:
        raise UsageError("--betas: %s" % exc)
    if len(unique) != len(betas):
        print("warning: duplicate beta values removed", file=sys.stderr)
    p0 = _parse_point(args.p0, surface) if args.p0 else surface.base_point
    ops = assemble(mesh)
    try:
        base = TruncationParams(args.coord, p0, unique[0])
        records = sweep_beta(mesh, ops, base, unique)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(sweep_csv(records), args.out)
    if args.profiles:
        _write_profiles(args.profiles, mesh, args.coord, p0, unique)
    return EXIT_OK


# Profile files with fewer rows (vertices x betas) than this are formatted in
# this process: forking the workers and returning their chunks costs more
# than it saves.  Median times of 11-beta profiles on 2 vCPUs, pooled against
# inline: torus 64 (45k rows) 0.21 s / 0.18 s, torus 96 (101k) 0.37 s /
# 0.38 s, torus 128 (180k) 0.52 s / 0.66 s, torus 256 (721k) 1.34 s / 2.06 s.
_PROFILE_POOL_ROWS = 100_000

# Row slices per beta.  Small chunks keep the parent's queue of formatted
# results, and with it its peak memory, small.
_PROFILE_SLICES = 8

# Set by the pool initializer in a forked worker only; the parent never
# holds it.
_worker_state = None


def _profile_rows(state, job):
    """The profile rows of one (beta, start, stop) job, formatted.

    ``state`` holds the distance-sorted distance and x_i columns and their
    ``repr`` strings; only the beta-dependent columns are computed here.
    """
    d, x, fixed = state
    beta, start, stop = job
    columns = np.stack(_profile_columns(beta, d[start:stop], x[start:stop]), axis=1)
    cells = np.empty((stop - start, 5), dtype=object)
    cells[:, [0, 3]] = fixed[start:stop]
    cells[:, [1, 2, 4]] = repr_floats(columns).reshape(-1, 3)
    row = repr(beta) + ",%s,%s,%s,%s,%s\n"
    return (row * (stop - start)) % tuple(cells.ravel().tolist())


def _init_profile_worker(state):
    global _worker_state
    _worker_state = state


def _pooled_profile_rows(job):
    return _profile_rows(_worker_state, job)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _profile_workers(jobs, rows):
    """Worker processes for the profile writer; 1 formats in this process."""
    if rows < _PROFILE_POOL_ROWS or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(_usable_cpus(), jobs)


def _write_profiles(path, mesh, coord, p0, betas):
    """Write the decay profiles, one block of distance-sorted rows per beta.

    Distance, x_i and their strings are made once per sweep.  Each block is
    cut into row slices that format independently; above a size threshold a
    fork pool formats them and ``imap`` returns them in order, so the bytes
    do not depend on the number of workers.  The workers inherit the columns
    through fork instead of receiving them per task; a spawned worker would
    import the package again and need them pickled.  They run elementwise
    numpy and ``repr`` only, no BLAS.
    """
    block = truncation_profile(mesh, TruncationParams(coord, p0, betas[0]))
    # contiguous columns, so every slice takes the same numpy loops as the whole
    state = (block[:, 0].copy(), block[:, 3].copy(),
             repr_floats(block[:, [0, 3]]).reshape(-1, 2))
    n = len(block)
    edges = [n * i // _PROFILE_SLICES for i in range(_PROFILE_SLICES + 1)]
    jobs = [(beta, start, stop) for beta in betas
            for start, stop in zip(edges, edges[1:]) if start < stop]
    workers = _profile_workers(len(jobs), n * len(betas))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("beta,distance,phi_beta,u_beta,x_i,abs_error\n")
        if workers == 1:
            fh.writelines(_profile_rows(state, job) for job in jobs)
            return
        pool = multiprocessing.get_context("fork").Pool(
            workers, _init_profile_worker, (state,))
        with pool:
            fh.writelines(pool.imap(_pooled_profile_rows, jobs))
            pool.close()
            pool.join()


def cmd_verify(args):
    surface = _surface(args)
    if surface.kind == "clifford":
        if args.subdivs is not None:
            raise UsageError("--subdivs applies to the sphere; use --resolutions")
        resolutions = (_parse_ints(args.resolutions, "--resolutions")
                       if args.resolutions is not None else None)
    else:
        if args.resolutions is not None:
            raise UsageError("--resolutions applies to the torus; use --subdivs")
        resolutions = (_parse_ints(args.subdivs, "--subdivs")
                       if args.subdivs is not None else None)
    betas = (_parse_floats(args.betas, "--betas")
             if args.betas is not None else None)
    report = run_all(surface, resolutions=resolutions, betas=betas,
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
    if args.surface == "clifford":
        surface = canonical.clifford_torus()
    else:
        try:
            surface = canonical.equatorial_sphere(args.n)
        except ValueError as exc:
            raise UsageError("--n: %s" % exc)
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
    common.add_argument("--seed", type=int, default=0,
                        help="solver start-vector seed (default 0)")
    common.add_argument("--out", default=None, help="output file path")
    common.add_argument("--config", default=None,
                        help="key = value file of flag defaults; flags win")

    parser = argparse.ArgumentParser(
        prog="eigenmin",
        description="Desk-scale spectral checks for minimal hypersurfaces"
                    " of the unit sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", parents=[common],
                       help="generate a canonical mesh and print its stats")
    p.add_argument("--surface", required=True, choices=["clifford", "sphere"])
    p.add_argument("--resolution", type=int, default=None,
                   help="torus grid resolution (default 64)")
    p.add_argument("--subdiv", type=int, default=None,
                   help="sphere subdivision level (default 4)")

    p = sub.add_parser("spectrum", parents=[common],
                       help="solve for the lowest eigenvalues")
    p.add_argument("--mesh", default=None, help="SMESH file to load")
    p.add_argument("--surface", default=None, choices=["clifford", "sphere"])
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--subdiv", type=int, default=None)
    p.add_argument("--k", type=int, default=6, help="eigenpair count (default 6)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="residual certificate (default 1e-8)")
    p.add_argument("--deflate", type=_str2bool, default=True,
                   help="remove the constant mode first (default true)")

    p = sub.add_parser("rayleigh", parents=[common],
                       help="Rayleigh quotient of a coordinate or truncation")
    p.add_argument("--mesh", default=None)
    p.add_argument("--surface", default=None, choices=["clifford", "sphere"])
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--subdiv", type=int, default=None)
    p.add_argument("--coord", type=int, default=1,
                   help="1-based ambient coordinate (default 1)")
    p.add_argument("--beta", type=float, default=None,
                   help="truncation strength; omit for the plain coordinate")
    p.add_argument("--p0", default=None,
                   help="base point: torus 'theta,phi', sphere 'x1,x2,x3,x4'")

    p = sub.add_parser("sweep", parents=[common],
                       help="sweep beta and emit the sweep CSV")
    p.add_argument("--mesh", default=None)
    p.add_argument("--surface", default=None, choices=["clifford", "sphere"])
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--subdiv", type=int, default=None)
    p.add_argument("--coord", type=int, default=1)
    p.add_argument("--p0", default=None)
    p.add_argument("--betas", default="1,2,4,8,16,32,64,128,256,512,1024")
    p.add_argument("--profiles", default=None,
                   help="also write per-vertex decay profiles to this CSV")

    p = sub.add_parser("verify", parents=[common],
                       help="run the full check suite; exit 1 on failure")
    p.add_argument("--surface", required=True, choices=["clifford", "sphere"])
    p.add_argument("--resolutions", default=None,
                   help="torus grid resolutions, e.g. 16,32,64")
    p.add_argument("--subdivs", default=None,
                   help="sphere subdivision levels, e.g. 2,3,4")
    p.add_argument("--betas", default=None)
    p.add_argument("--tol", type=float, default=1.0,
                   help="scale on every check tolerance (default 1.0)")
    p.add_argument("--solver-tol", type=float, default=1e-8)
    p.add_argument("--csv", default=None, help="also write the CSV report here")

    p = sub.add_parser("oracle", parents=[common],
                       help="print closed-form values for a surface")
    p.add_argument("--surface", required=True, choices=["clifford", "sphere"])
    p.add_argument("--n", type=int, default=2,
                   help="sphere dimension for the oracle (default 2)")
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
    except (UsageError, MeshError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except NonConvergence as exc:
        print("error: solver did not converge: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
