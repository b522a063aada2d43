"""Benchmark of the eigenmin CLI: end-to-end times per command, per-layer spans.

Run from the repository root:

    python3 bench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): verify-default, spectrum-fine and mesh-io
(``all`` runs these three in turn); and spectrum-defect, which is not in
BENCHMARK.json because its sphere op fails today.  With ``--trace 0`` the
run repeats passes of the workload for about ``--seconds`` seconds and
reports the end-to-end metrics: ``setup_s`` (a fresh interpreter imports
eigenmin and parses one CLI line, median of 7), ``pass_s`` (time of one
pass over the workload's ops, median over passes) and ``peak_rss_mb`` (of
this process, so under ``all`` it includes the workloads before); it also
prints each command's median time.  With ``--trace 1`` it runs one untraced
pass, one traced pass and one traced pass in a fresh interpreter at the
package's default BLAS width (metrics prefixed ``nproc.``), reports the
per-layer metrics and writes the spans to ``bench/out/``.

Every pass runs with EIGENMIN_THREADS=1 unless stated otherwise; the
OMP/OPENBLAS/MKL thread variables are removed from the environment.  On a
2-vCPU VM, five runs of each workload at the default width (two BLAS
threads) spread a command's time by up to 35% (quartile distance over
median; sphere verify), against 11-21% with one thread.  Every op's output
is checked; a failed op counts in ``failed`` and gives no time sample.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("EIGENMIN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LISTED = ("verify-default", "spectrum-fine", "mesh-io")
WORKLOAD_NAMES = LISTED + ("spectrum-defect", "all")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: the default-width traced pass of a --trace 1 run
    parser.add_argument("--default-width-pass", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _json_default(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError("not serializable: %r" % (obj,))


def run_workload(harness, args) -> dict:
    """Measure one workload, write its trace, print its table; returns the record."""
    tag = "%s-seed%d%s" % (args.workload, args.seed,
                           "-nproc" if args.default_width_pass else "")
    workdir = HERE / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)  # left over from a killed run
    workdir.mkdir(parents=True)
    try:
        record = harness.run(args, ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with open(out / ("trace-%s.json" % tag), "w") as fh:
            json.dump(record, fh, default=_json_default, indent=1)

    attempted, failed = record["attempted"], record["failed"]
    print("workload %s seed %d: %d ops attempted, %d failed, ops_failed_frac %.4g"
          % (args.workload, args.seed, attempted, failed, failed / attempted))
    # per-command time: median over passes, then every sample
    for i, argv in enumerate(record["env"]["argv"]):
        times = [p.ops[i].seconds for p in record["passes"]]
        median = harness.median_or_none(times)
        print("  %-38s %s s (%s)" % (
            " ".join(argv[:5]), "failed" if median is None else "%.6g" % median,
            " ".join("failed" if t is None else "%.3f" % t for t in times)))
    for p in record["passes"]:
        for op in p.ops:
            if op.error:
                print("FAILED %s: %s" % (" ".join(op.argv), op.error), file=sys.stderr)
    for name, value in record["metrics"].items():
        print("  %-38s %s %s" % (name, "failed" if value is None else "%.6g" % value,
                                 harness.unit_of(name)))
    print("env " + json.dumps(record["env"]))
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eigenmin" / "__init__.py").is_file():
        print("error: eigenmin sources not found under %s" % SRC, file=sys.stderr)
        return 2
    # the thread width must be settled before numpy loads OpenBLAS
    for var in BLAS_VARS:
        os.environ.pop(var, None)
    if not args.default_width_pass:
        os.environ["EIGENMIN_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import eigenmin  # noqa: F401  (applies EIGENMIN_THREADS before numpy loads)
    import harness

    names = LISTED if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        record = run_workload(harness, argparse.Namespace(**{**vars(args), "workload": name}))
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = name + "." if args.workload == "all" else ""
        for metric, value in record["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": harness.unit_of(metric)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
