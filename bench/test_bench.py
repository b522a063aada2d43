"""Tests of the benchmark's own logic: argv generation, span accounting, failure counting.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
from eigenmin import cli, mesh  # noqa: E402
from workloads import WORKLOADS, Op, build_ops  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = (0, 1, 12345, 2**40 + 7)


def _argvs(workload, seed, workdir):
    return [op.argv for op in build_ops(workload, seed, workdir)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_to_argv_is_deterministic_and_valid(workload, tmp_path):
    parser = cli.build_parser()
    for seed in SEEDS:
        argvs = _argvs(workload, seed, tmp_path)
        assert argvs == _argvs(workload, seed, tmp_path)
        for argv in argvs:
            args = parser.parse_args(argv)
            if args.command == "sweep":
                limit = 4 if "torus" in args.mesh else 3
                assert 1 <= args.coord <= limit
                p0 = [float(t) for t in args.p0.split(",")]
                if limit == 3:
                    assert p0[3] == 0.0
                    assert sum(x * x for x in p0) == pytest.approx(1.0, abs=1e-12)
                else:
                    assert len(p0) == 2


def test_mesh_io_seed_sets_coord_and_point(tmp_path):
    sweeps = {tuple(a for a in argv if a.startswith("--p0="))
              for seed in range(8) for argv in _argvs("mesh-io", seed, tmp_path)
              if argv[0] == "sweep"}
    assert len(sweeps) == 16


def _span(name, start, end, parent=None):
    return tracing.Span(name, float(start), float(end), parent)


def test_self_time_on_synthetic_span_tree():
    spans = [
        _span("root", 0, 10),
        _span("a", 1, 4, 0),
        _span("b", 3, 6, 0),    # overlaps a: the union [1, 6] counts once
        _span("c", 2, 3, 1),    # grandchild: covered by a, not by root directly
        _span("d", 9, 12, 0),   # runs past its parent: clipped to [9, 10]
        _span("root", 11, 13),  # a second root span of the same name
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 2.0])
    totals = tracing.total_times(spans)
    assert totals["root"] == pytest.approx(12.0)
    assert totals["a"] == pytest.approx(3.0)


def test_total_time_counts_nested_same_name_spans_once():
    spans = [_span("f", 0, 5), _span("f", 1, 2, 0), _span("g", 2, 4, 0), _span("f", 3, 4, 2)]
    assert tracing.total_times(spans)["f"] == pytest.approx(5.0)


def test_instrument_records_layers_and_restores(tmp_path):
    original = cli.generate
    tracer = tracing.Tracer()
    out = tmp_path / "m.smesh"
    with tracing.instrument(tracer):
        assert cli.generate is not original
        assert cli.main(["mesh", "--surface", "sphere", "--subdiv", "1", "--out", str(out)]) == 0
    assert cli.generate is original and mesh.generate is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main"
    assert {"mesh.generate", "mesh.mesh_stats", "mesh.write_mesh"} <= set(names)
    assert all(s.parent == 0 for s in tracer.spans[1:])
    metrics = tracing.layer_metrics(tracer)
    assert metrics["mesh.bytes"] == out.stat().st_size
    assert metrics["mesh.mesh_stats_calls"] == 1


def _exit_zero(rc, stdout):
    return None if rc == 0 else "exit code %r" % (rc,)


def test_failing_op_is_counted_and_gives_no_time_sample():
    ok = Op(["oracle", "--surface", "sphere"], _exit_zero)
    bad = Op(["spectrum", "--surface", "sphere", "--subdiv", "1", "--k", "0"], _exit_zero)
    unknown_flag = Op(["spectrum", "--no-such-flag"], _exit_zero)
    result = harness.run_pass([ok, bad, unknown_flag])
    assert [r.seconds is None for r in result.ops] == [False, True, True]
    assert result.ops[1].error.startswith("exit code 2")
    assert result.sample is None
    assert harness.run_pass([ok]).sample > 0
    assert harness.tally([result, result]) == (6, 4)


def test_median_ranks_failures_slowest():
    assert harness.median_or_none([3.0, None, 1.0]) == 3.0
    assert harness.median_or_none([2.0, 1.0]) == 1.5
    assert harness.median_or_none([None, None, 1.0]) is None


def test_benchmark_json_lists_the_reported_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(harness.PER_LAYER)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["unit"] == harness.unit_of(metric["name"])
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
