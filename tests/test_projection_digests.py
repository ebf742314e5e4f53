"""The geometry suites against the benchmark's reference digests.

The seven `syz verify` suites of the `geometry-suites` workload run
in-process at seed 0, through the benchmark's own `Runner`, and each
report's digest outside `timings` must equal the one in
`bench/reference_digests.json`.  So a change to what these suites report
fails here, without a benchmark run.  Nothing under `bench/` is written."""

import json
from pathlib import Path

import pytest

from syzkit import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


@pytest.mark.parametrize(
    "suite",
    [
        "aprodu-proj",
        "reconstruct",
        "inc-syz",
        "ep",
        "green-small",
        "nodal-iso",
        "schreyer-converse",
    ],
)
def test_projection_suite_matches_its_reference_digest(workloads, suite):
    cid = f"verify {suite}"
    reference = json.loads((BENCH / "reference_digests.json").read_text())["geometry-suites"]
    runner = workloads.Runner(cli, 0, reference)
    runner.syz(cid, ["verify", suite])
    assert runner.digests[cid] == reference[cid]
    assert runner.jobs and not [job for job in runner.jobs if job.failure]
