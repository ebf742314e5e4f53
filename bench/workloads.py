"""The benchmark's workloads: the `syz` commands each one runs in-process,
and the checks every output has to pass.

A workload is a plan: an ordered dict of named units, each a function of a
`Runner` that issues one or more `syz` commands and checks what they
print.  A job is one non-verify command, or one case of a `syz verify`
run as listed under `timings.cases` in its report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations

from syzkit.builders import adjoint_system, model_image, nodal_quintic
from syzkit.polyring import Ideal, format_ideal_text

DEFAULT_CHAR = 32003
CROSSCHECK_CHAR = 31991

# Generated inputs always land at the same relative paths, because reports
# record each input's path next to its sha256.
INPUT_DIR = os.path.join("bench", "_inputs")

# Scrolls of degree <= 4, then the rational normal quintic.  The degree-5
# scrolls of dimension >= 2 are left out: each takes 20-73 s on the dense
# elimination engine.
ORACLE_SCROLLS = ("1", "2", "1 1", "3", "2 1", "1 1 1", "4", "3 1", "2 2", "2 1 1")
ORACLE_CIS = ((2, 3), (2, 2, 2))
KOSZUL_CIS = ((2, 3), (2, 2, 2), (2, 2, 3), (3, 3))
GEOMETRY_SUITES = (
    "aprodu-proj", "reconstruct", "inc-syz", "ep",
    "green-small", "nodal-iso", "schreyer-converse",
)


@dataclass
class Job:
    id: str
    seconds: float
    failure: str = ""  # empty when every check passed


def report_digest(report: dict) -> str:
    """sha256 of a report with its `timings` subtree removed."""
    body = {k: v for k, v in report.items() if k != "timings"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs `syz` commands in-process for one pass and records their jobs.

    `cli` is the syzkit.cli module; `main` is looked up on every command
    so that a traced pass sees its wrapper.  `reference` maps command ids
    to report digests; when given, a report whose digest differs fails
    every job of its command."""

    def __init__(self, cli, seed: int, reference: dict | None = None):
        self.cli = cli
        self.seed = seed
        self.reference = reference
        self.jobs: list[Job] = []
        self.digests: dict = {}

    def syz(self, cid: str, argv: list) -> dict | None:
        """Run one command; its report if every check passed, else None."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = self.cli.main([*argv, "--json", "--seed", str(self.seed)])
        except Exception as exc:  # a crash of the program is a failed job
            rc = f"{type(exc).__name__}: {exc}"
        return self.record(cid, rc, out.getvalue(), time.perf_counter() - start)

    def record(self, cid: str, rc, text: str, seconds: float) -> dict | None:
        """Turn one command's exit code and output into jobs."""
        try:
            report = json.loads(text)
            payload = report["payload"]
            digest = report_digest(report)
            cases = report["timings"]["cases"] if report["command"] == "verify" else None
        except (ValueError, KeyError, TypeError) as exc:
            self.jobs.append(Job(cid, seconds, f"exit {rc}; no valid report ({exc})"))
            return None
        self.digests[cid] = digest
        problem = f"exit {rc}" if rc != 0 else ""
        if not problem and self.reference is not None and self.reference.get(cid) != digest:
            problem = "report differs from the reference digest"
        if cases is None:
            self.jobs.append(Job(cid, seconds, problem))
            return None if problem else report
        try:
            status = {c["id"]: c["status"] for c in payload["cases"]}
            if not problem and (payload["result"] != "PASS" or payload["summary"]["skipped"]):
                problem = f"suite {payload['result']}, {payload['summary']['skipped']} skipped"
        except (KeyError, TypeError) as exc:
            problem = f"malformed suite payload ({exc})"
            status = {}
        if not cases:
            self.jobs.append(Job(cid, seconds, problem or "suite ran no cases"))
            return None
        for case_id, case_s in sorted(cases.items()):
            state = status.get(case_id)
            self.jobs.append(Job(case_id, case_s, problem or ("" if state == "PASS" else f"case {state}")))
        return None if problem else report

    def fail(self, cid: str, reason: str) -> None:
        for job in self.jobs:
            if job.id == cid and not job.failure:
                job.failure = reason


# ---------------------------------------------------------------------------
# output checks shared by the workloads


def table_grid(report: dict) -> dict:
    """{(p, q): b_pq} over the nonzero entries of a `syz betti` report."""
    return {
        (e["p"], e["q"]): e["value"]
        for e in report["payload"]["table"]["entries"]
        if e["value"]
    }


def ci_closed_form(degrees, pmax: int, qmax: int) -> dict:
    """Betti grid of a complete intersection: its resolution is the Koszul
    complex on the generators, so b_pq counts the p-subsets of `degrees`
    summing to p + q."""
    grid: dict = {}
    for p in range(pmax + 1):
        for subset in combinations(degrees, p):
            q = sum(subset) - p
            if q <= qmax:
                grid[(p, q)] = grid.get((p, q), 0) + 1
    return grid


def _ci_name(degrees) -> str:
    return "ci " + " ".join(map(str, degrees))


def _ci_recipe(degrees, seed: int) -> str:
    return f"{_ci_name(degrees)} seed={seed}"


# ---------------------------------------------------------------------------
# oracle: syz resolve, then syz betti over the resolution's window


def _oracle_instance(runner: Runner, name: str, source: str, degrees=None) -> None:
    rid, bid = f"resolve {name}", f"betti {name}"
    res = runner.syz(rid, ["resolve", source])
    if res is None:
        return
    try:
        payload = res["payload"]
        strand = {tuple(map(int, k.split(","))): v for k, v in payload["strand"].items()}
        pmax, qmax = payload["length"], max(q for _, q in strand)
        truncated = payload["truncated"]
    except (KeyError, TypeError, ValueError) as exc:
        runner.fail(rid, f"malformed resolve payload ({exc})")
        return
    if truncated:
        runner.fail(rid, "resolution truncated")
    table = runner.syz(bid, ["betti", source, "--pmax", str(pmax), "--qmax", str(qmax)])
    if table is None:
        return
    try:
        grid = table_grid(table)
    except (KeyError, TypeError) as exc:
        runner.fail(bid, f"malformed betti payload ({exc})")
        return
    if grid != strand:
        runner.fail(bid, "Koszul grid differs from the resolution grid")
    elif degrees and grid != ci_closed_form(degrees, pmax, qmax):
        runner.fail(bid, "grid differs from the Koszul-complex closed form")


def write_nodal_inputs(seed: int) -> dict:
    """Draw the 1- and 2-nodal quintics for `seed` and write the inputs of
    the three plane-model instances; {instance name: scheme source}."""
    os.makedirs(INPUT_DIR, exist_ok=True)
    one, two = (nodal_quintic(k, DEFAULT_CHAR, seed=seed) for k in (1, 2))
    nodal_d = model_image(two, adjoint_system(two, 2, through=[0]))
    files = {
        "quintic-1node.ideal": Ideal(one.ring, [one.curve]),
        "quintic-2node.ideal": Ideal(two.ring, [two.curve]),
        "nodal-d.ideal": nodal_d.ideal,
    }
    for fname, ideal in files.items():
        with open(os.path.join(INPUT_DIR, fname), "w") as fh:
            fh.write(format_ideal_text(ideal, [f"benchmark input, seed {seed}"]))
    path = partial(os.path.join, INPUT_DIR)
    return {
        "trigonal-g5": f"plane-model file={path('quintic-1node.ideal')} adjoints=2 node=0,0,1",
        "genus4-image": (
            f"plane-model file={path('quintic-2node.ideal')} adjoints=2 node=0,0,1 node=0,1,0"
        ),
        "nodal-d": path("nodal-d.ideal"),
    }


def oracle_plan(seed: int) -> dict:
    plan = {}
    for e in ORACLE_SCROLLS:
        plan[f"scroll {e}"] = partial(_oracle_instance, name=f"scroll {e}", source=f"scroll {e}")
    plan["rnc 5"] = partial(_oracle_instance, name="rnc 5", source="rnc 5")
    for degrees in ORACLE_CIS:
        name = _ci_name(degrees)
        plan[name] = partial(
            _oracle_instance, name=name, source=_ci_recipe(degrees, seed), degrees=degrees
        )
    for name, source in write_nodal_inputs(seed).items():
        plan[name] = partial(_oracle_instance, name=name, source=source)
    return plan


# ---------------------------------------------------------------------------
# koszul-betti: the Koszul rank route


def _suite(runner: Runner, suite: str) -> None:
    runner.syz(f"verify {suite}", ["verify", suite])


def _ci_tables(runner: Runner, degrees, seed: int) -> None:
    grids = {}
    for char in (DEFAULT_CHAR, CROSSCHECK_CHAR):
        cid = f"betti {_ci_name(degrees)} @{char}"
        report = runner.syz(
            cid, ["betti", _ci_recipe(degrees, seed), "--field-char", str(char)]
        )
        if report is None:
            continue
        try:
            table = report["payload"]["table"]
            grids[cid] = table_grid(report)
            closed_form = ci_closed_form(degrees, table["pmax"], table["qmax"])
        except (KeyError, TypeError) as exc:
            runner.fail(cid, f"malformed betti payload ({exc})")
            continue
        if grids[cid] != closed_form:
            runner.fail(cid, "grid differs from the Koszul-complex closed form")
    tables = list(grids.values())
    if len(tables) == 2 and tables[0] != tables[1]:
        for cid in grids:
            runner.fail(cid, "grids differ between the two primes")


def koszul_betti_plan(seed: int) -> dict:
    plan = {"scroll-betti": partial(_suite, suite="scroll-betti")}
    for degrees in KOSZUL_CIS:
        plan[_ci_name(degrees)] = partial(_ci_tables, degrees=degrees, seed=seed)
    return plan


# ---------------------------------------------------------------------------
# geometry-suites: projection, membership and syzygy-scheme suites


def geometry_suites_plan(seed: int) -> dict:
    return {suite: partial(_suite, suite=suite) for suite in GEOMETRY_SUITES}


PLANS = {
    "oracle": oracle_plan,
    "koszul-betti": koszul_betti_plan,
    "geometry-suites": geometry_suites_plan,
}
