"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import syzkit.cli  # noqa: E402
import syzkit.koszul  # noqa: E402


def test_self_time_subtracts_nested_spans():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("exactalg.leaf", lambda: None)
    middle = tracer.wrap("polyring.middle", lambda: (leaf(), leaf()))
    outer = tracer.wrap("koszul.outer", lambda: (middle(), leaf()))
    outer()

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    # a wrapper reads the clock at entry, span start, span end and, when it
    # has a parent, at exit: a leaf span lasts 1 tick and costs its parent 3
    assert [s.self_s for s in by_name["exactalg.leaf"]] == [1.0, 1.0, 1.0]
    middle_span = by_name["polyring.middle"][0]
    assert middle_span.end - middle_span.start == 9.0
    assert middle_span.self_s == 3.0
    outer_span = by_name["koszul.outer"][0]
    assert outer_span.end - outer_span.start == 17.0
    assert outer_span.self_s == 3.0
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0]

    values = tracing.layer_metrics(tracer.spans, traced_wall_s=20.0, untraced_wall_s=18.5)
    assert values["exactalg.self_s"] == 3.0
    assert values["polyring.self_s"] == 3.0
    assert values["koszul.self_s"] == 3.0
    assert values["trace.overhead_s"] == 1.5
    assert values["trace.spans"] == 5


def test_self_time_of_a_caught_error_goes_to_the_raising_span():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def fail():
        raise ValueError("not a plane model")

    leaf = tracer.wrap("builders.leaf", fail)

    def retry():
        with pytest.raises(ValueError):
            leaf()

    outer = tracer.wrap("builders.outer", retry)
    outer()

    leaf_span, outer_span = tracer.spans[1], tracer.spans[0]
    assert leaf_span.self_s == 1.0
    # the outer span lasts 5 ticks, 3 of them spent inside the failed call
    assert outer_span.end - outer_span.start == 5.0
    assert outer_span.self_s == 2.0
    assert tracer.stack == []


def test_percentile_reports_its_sample_count():
    assert run.percentile([3.0], 90) == (3.0, 1)
    value, n = run.percentile(range(1, 11), 90)
    assert n == 10 and value == pytest.approx(9.1)
    assert run.percentile([4, 1, 3, 2], 50) == (2.5, 4)
    with pytest.raises(ValueError):
        run.percentile([], 90)


def _report(command="betti", **payload):
    return {"command": command, "payload": payload, "timings": {"total_s": 1.0, "cases": {}}}


def test_corrupted_report_is_a_failed_job():
    runner = workloads.Runner(syzkit.cli, seed=0)
    good = json.dumps(_report(table={}))
    assert runner.record("ok", 0, good, 0.1) is not None
    assert runner.record("truncated", 0, good[:-5], 0.1) is None
    assert runner.record("not-an-object", 0, "[1, 2]", 0.1) is None
    assert runner.record("exit-2", 2, good, 0.1) is None
    assert [j.id for j in runner.jobs if j.failure] == ["truncated", "not-an-object", "exit-2"]


def test_suite_cases_are_jobs_and_a_skip_fails():
    suite = _report(
        "verify", result="PASS", summary={"skipped": 1},
        cases=[{"id": "s/a", "status": "PASS"}, {"id": "s/b", "status": "SKIP"}],
    )
    suite["timings"]["cases"] = {"s/a": 0.5, "s/b": 0.25}
    runner = workloads.Runner(syzkit.cli, seed=0)
    runner.record("verify s", 0, json.dumps(suite), 1.0)
    assert [(j.id, j.seconds, bool(j.failure)) for j in runner.jobs] == [
        ("s/a", 0.5, True), ("s/b", 0.25, True)
    ]


def test_digest_ignores_timings_only():
    a = _report(table={"x": 1})
    b = json.loads(json.dumps(a))
    b["timings"]["total_s"] = 9.0
    assert workloads.report_digest(a) == workloads.report_digest(b)
    b["payload"]["table"]["x"] = 2
    assert workloads.report_digest(a) != workloads.report_digest(b)
    runner = workloads.Runner(syzkit.cli, seed=0, reference={"c": workloads.report_digest(a)})
    runner.record("c", 0, json.dumps(b), 0.1)
    assert runner.jobs[0].failure == "report differs from the reference digest"


def test_ci_closed_form():
    assert workloads.ci_closed_form((2, 2, 2), 3, 3) == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    assert workloads.ci_closed_form((3, 3), 3, 3) == {(0, 0): 1, (1, 2): 2}


def test_layer_table_binds_every_listed_name():
    tracer = tracing.Tracer()
    gone = (
        tracing.LayerFunction("koszul", "no_such_function", ("cli",)),
        tracing.LayerFunction("no_such_module", "rref"),
        tracing.LayerFunction("polyring", "_minimalize", ("no_such_module",)),
    )
    installed = tracing.install(tracer, (*tracing.LAYERS, *gone))
    try:
        assert installed.missing == ["koszul.no_such_function", "no_such_module.rref"]
        assert installed.stale == ["no_such_module._minimalize"]
        assert installed.unlisted == []
        assert syzkit.koszul.rref.__wrapped_layer__ == "exactalg.rref"
        assert syzkit.cli.minimal_free_resolution.__wrapped_layer__ == (
            "koszul.minimal_free_resolution"
        )
    finally:
        tracing.uninstall(installed)
    assert not hasattr(syzkit.koszul.rref, "__wrapped_layer__")
    assert not hasattr(syzkit.polyring.Ideal.nf_times_var, "__wrapped_layer__")


@pytest.mark.parametrize(
    "workload, smallest",
    [("oracle", "scroll 1"), ("koszul-betti", "ci 2 3"), ("geometry-suites", "schreyer-converse")],
)
def test_smallest_job_of_each_workload(workload, smallest, monkeypatch):
    monkeypatch.chdir(run.ROOT)
    reference = json.loads(run.REFERENCE.read_text())[workload]
    unit = workloads.PLANS[workload](0)[smallest]
    plain = workloads.Runner(syzkit.cli, 0, reference)
    unit(plain)
    assert plain.jobs and not [j for j in plain.jobs if j.failure]

    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        traced = workloads.Runner(syzkit.cli, 0, reference)
        unit(traced)
    finally:
        tracing.uninstall(installed)
    assert traced.digests == plain.digests
    assert tracer.spans[0].name == "cli.main"


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    assert spec["run_seconds"] == run.parse_args(["--workload", "oracle"]).seconds
