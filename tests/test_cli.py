"""End-to-end tests of the `syz` command line front end.

Everything goes through ``syzkit.cli.main(argv)`` so exit codes and
output are exactly what a shell user sees.  Oracles:

* the twisted cubic in P^3 has b_{1,1} = 3 and b_{2,1} = 2 (three
  quadric minors, two linear syzygies of the 2x3 matrix) — the same
  frozen values as in the library tests;
* projecting the twisted cubic from one of its points gives a conic;
* every JSON report must validate against the schema shipped inside the
  package, and must be byte-identical across reruns once the timings
  subtree is removed.
"""

import json
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import syzkit.cli as cli
from syzkit.builders import en_betti
from syzkit.cli import main

TC_TEXT = """\
# twisted cubic
field 32003
ring x0 x1 x2 x3
ideal
x0*x2 - x1^2
x0*x3 - x1*x2
x1*x3 - x2^2
"""


@pytest.fixture()
def tc_file(tmp_path):
    path = tmp_path / "tc.ideal"
    path.write_text(TC_TEXT)
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def load_schema():
    ref = resources.files("syzkit.schemas").joinpath("report.schema.json")
    return json.loads(ref.read_text())


# ---------------------------------------------------------------------------
# betti


def test_betti_text_grid(tc_file, capsys):
    rc = main(["betti", tc_file, "--pmax", "3", "--qmax", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "field: 32003" in out
    # strand row: 1 at (0,0), then 3 and 2 on the q = 1 row
    lines = [ln for ln in out.splitlines() if ln.strip().startswith("1:")]
    assert lines and lines[0].split() == ["1:", ".", "3", "2", "."]


def test_betti_json_values(tc_file, capsys):
    rc, report = run_json(capsys, ["betti", tc_file, "--pmax", "3", "--qmax", "2", "--json"])
    assert rc == 0
    entries = {
        (e["p"], e["q"]): e["value"] for e in report["payload"]["table"]["entries"]
    }
    assert entries[(1, 1)] == 3
    assert entries[(2, 1)] == 2
    assert entries[(0, 0)] == 1
    assert all(v == 0 for (p, q), v in entries.items() if q == 2)
    assert report["field_char"] == 32003
    assert report["inputs"][0]["source"] == tc_file
    assert len(report["inputs"][0]["sha256"]) == 64


def test_betti_recipe_equals_file_route(tc_file, capsys):
    rc1, via_file = run_json(capsys, ["betti", tc_file, "--pmax", "2", "--qmax", "1", "--json"])
    rc2, via_recipe = run_json(capsys, ["betti", "rnc 3", "--pmax", "2", "--qmax", "1", "--json"])
    assert rc1 == rc2 == 0
    assert via_file["payload"]["table"] == via_recipe["payload"]["table"]


# ---------------------------------------------------------------------------
# report schema and determinism


REPORT_ARGVS = [
    ["betti", "rnc 3", "--pmax", "2", "--qmax", "1", "--json"],
    ["cocycles", "rnc 3", "--p", "2", "--json"],
    ["syzscheme", "rnc 3", "--p", "2", "--json"],
    ["project", "rnc 3", "--point", "1,0,0,0", "--json"],
    ["reconstruct", "rnc 3", "--p", "2", "--json"],
    ["resolve", "rnc 3", "--json"],
    ["build", "scroll 2 1", "--json"],
    ["verify", "ep", "--variety", "rnc 3", "--samples", "2", "--json"],
]


@pytest.mark.parametrize("argv", REPORT_ARGVS, ids=lambda a: a[0])
def test_reports_validate_against_shipped_schema(argv, capsys):
    schema = load_schema()
    rc, report = run_json(capsys, argv)
    assert rc == 0
    jsonschema.validate(report, schema)
    assert report["schema"] == "syzkit-report/1"
    assert report["command"] == argv[0]
    assert report["argv"] == argv
    assert report["seed"] == 0


def test_rerun_identical_modulo_timings(capsys):
    argv = ["verify", "ep", "--variety", "rnc 3", "--samples", "3", "--json"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    first.pop("timings")
    second.pop("timings")
    assert first == second


def test_shared_instances_are_built_once(capsys, monkeypatch):
    calls = []
    build = cli.model_image

    def counted(*args, **kwargs):
        calls.append(kwargs["labels"]["model"])
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "model_image", counted)
    rc, _ = run_json(capsys, ["verify", "schreyer-converse", "--json"])
    assert rc == 0
    assert calls and len(calls) == len(set(calls))


def test_case_filter_replays_the_same_draw(capsys):
    full_argv = ["verify", "ep", "--variety", "rnc 4", "--samples", "4", "--json"]
    _, full = run_json(capsys, full_argv)
    case_id = "ep/rnc-4/class-02"
    wanted = next(c for c in full["payload"]["cases"] if c["id"] == case_id)
    _, single = run_json(capsys, full_argv + ["--case", case_id])
    assert single["payload"]["summary"]["cases"] == 1
    replayed = single["payload"]["cases"][0]
    assert replayed["computed"]["class"] == wanted["computed"]["class"]
    assert replayed["status"] == wanted["status"] == "PASS"


def test_replay_command_reruns_the_case(capsys):
    # under a small budget the case skips entries; its replay line must
    # carry the budget, so that the rerun skips the same ones
    argv = ["verify", "scroll-betti", "--variety", "rnc 4", "--entry-budget", "10"]
    rc, full = run_json(capsys, argv + ["--json"])
    assert rc == 0
    (case,) = full["payload"]["cases"]
    assert case["warnings"][0].startswith("entry (1,1) skipped: koszul matrix")
    syz, *replay = shlex.split(case["replay"])
    assert syz == "syz"
    rc, single = run_json(capsys, replay + ["--json"])
    assert rc == 0
    (replayed,) = single["payload"]["cases"]
    for key in ("id", "status", "computed", "warnings"):
        assert replayed[key] == case[key]


def test_every_case_carries_a_replay_command(capsys):
    _, report = run_json(
        capsys, ["verify", "reconstruct", "--variety", "rnc 3", "--samples", "2", "--json"]
    )
    for case in report["payload"]["cases"]:
        assert case["replay"].startswith("syz verify reconstruct --case ")
        assert "--seed 0" in case["replay"]


# ---------------------------------------------------------------------------
# verify outcomes and exit codes


def test_verify_text_summary(capsys):
    rc = main(["verify", "scroll-betti", "--variety", "rnc 3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS scroll-betti/3" in out
    assert "suite scroll-betti: PASS — 1/1 passed, 0 skipped" in out


def test_verify_reports_divergence_with_exit_1(monkeypatch, capsys):
    # poison the expected-value route so the suite must fail; this tests
    # the failure plumbing, not the mathematics
    monkeypatch.setattr(cli, "en_betti", lambda f, p: 999)
    rc = main(["verify", "scroll-betti", "--variety", "rnc 3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    assert "first divergent case" in out
    assert "replay" in out


def test_verify_json_failure_payload(monkeypatch, capsys):
    monkeypatch.setattr(cli, "en_betti", lambda f, p: 999)
    rc = main(["verify", "scroll-betti", "--variety", "rnc 3", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["payload"]["result"] == "FAIL"
    assert report["payload"]["summary"]["failed"] == 1
    case = report["payload"]["cases"][0]
    assert case["status"] == "FAIL"
    assert case["expected"] != case["computed"]
    jsonschema.validate(report, load_schema())


def test_entry_budget_forces_deterministic_skip(capsys):
    # at F_2 the cut of this scroll keeps a variable too many, so every
    # matrix it builds has entries
    argv = ["verify", "scroll-betti", "--variety", "scroll 2 2", "--field-char", "2"]
    rc = main(argv + ["--entry-budget", "1"])
    out = capsys.readouterr().out
    assert rc == 0  # skipped, not failed
    assert "SKIP" in out
    assert "budget" in out


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_every_suite_under_a_tiny_budget_skips_or_refuses(suite, capsys):
    rc = main(["verify", suite, "--entry-budget", "1"])
    assert rc in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_fixed_corpus_suites_reject_variety():
    for suite in ("green-small", "nodal-iso", "schreyer-converse"):
        assert main(["verify", suite, "--variety", "rnc 3"]) == 2


def test_unknown_suite_is_usage_error(capsys):
    rc = main(["verify", "no-such-suite"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown suite" in err


# ---------------------------------------------------------------------------
# other subcommands


def test_cocycles_lists_basis(capsys):
    rc, report = run_json(capsys, ["cocycles", "rnc 3", "--p", "2", "--json"])
    assert rc == 0
    assert report["payload"]["dimension"] == 2
    assert len(report["payload"]["classes"]) == 2
    for c in report["payload"]["classes"]:
        assert c["p"] == 2 and c["terms"]


def test_syzscheme_of_top_class_is_the_curve(capsys, tmp_path):
    out_path = tmp_path / "syz.ideal"
    rc = main(["syzscheme", "rnc 3", "--p", "2", "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    rc, report = run_json(
        capsys, ["betti", str(out_path), "--pmax", "2", "--qmax", "1", "--json"]
    )
    assert rc == 0
    entries = {
        (e["p"], e["q"]): e["value"] for e in report["payload"]["table"]["entries"]
    }
    assert entries[(1, 1)] == 3 and entries[(2, 1)] == 2


def test_syzscheme_accepts_class_file(capsys, tmp_path):
    rc, report = run_json(capsys, ["cocycles", "rnc 3", "--p", "2", "--json"])
    class_path = tmp_path / "class.json"
    class_path.write_text(json.dumps(report["payload"]["classes"][0]))
    rc, report = run_json(
        capsys, ["syzscheme", "rnc 3", "--class-file", str(class_path), "--json"]
    )
    assert rc == 0
    assert report["payload"]["syzygy_scheme"]["hilbert"] == {"dimension": 1, "degree": 3}


@pytest.mark.parametrize(
    "data",
    [
        {"p": "x", "terms": []},
        {"p": 1, "terms": [{"wedge": [0], "var": 1, "coeff": "abc"}]},
        {"p": 1, "terms": [{"wedge": ["a"], "var": 1, "coeff": 1}]},
        {"p": 1, "terms": [{"wedge": [0], "var": 1.5, "coeff": 1}]},
        {"p": True, "terms": [{"wedge": [0], "var": 1, "coeff": 1}]},
    ],
    ids=["p-string", "coeff-string", "wedge-string", "var-float", "p-bool"],
)
def test_malformed_class_file_exits_2(data, capsys, tmp_path):
    class_path = tmp_path / "class.json"
    class_path.write_text(json.dumps(data))
    assert main(["syzscheme", "rnc 3", "--class-file", str(class_path)]) == 2
    err = capsys.readouterr().err
    assert "error: malformed cocycle JSON" in err
    assert "Traceback" not in err


def test_project_scheme_and_class(capsys):
    rc, report = run_json(
        capsys,
        ["project", "rnc 3", "--point", "1,0,0,0", "--p", "2", "--class-index", "0", "--json"],
    )
    assert rc == 0
    assert report["payload"]["projected"]["hilbert"] == {"dimension": 1, "degree": 2}
    assert report["payload"]["survived"] is True
    assert report["payload"]["projected_class"]["p"] == 1


def test_reconstruct_equals_syzygy_scheme(capsys):
    rc, report = run_json(
        capsys, ["reconstruct", "rnc 3", "--p", "2", "--points", "4", "--json"]
    )
    assert rc == 0
    assert report["payload"]["equal_to_syzygy_scheme"] is True
    assert report["payload"]["every_cone_contains_syzygy_scheme"] is True
    assert report["payload"]["cones"] == 4


def test_resolve_matches_koszul_grid(capsys):
    rc, report = run_json(capsys, ["resolve", "rnc 3", "--json"])
    assert rc == 0
    assert report["payload"]["strand"] == {"0,0": 1, "1,1": 3, "2,1": 2}
    assert report["payload"]["truncated"] is False


def test_build_round_trips_through_a_file(capsys, tmp_path):
    out_path = tmp_path / "scroll.ideal"
    rc = main(["build", "scroll 2 1", "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    rc, via_file = run_json(
        capsys, ["betti", str(out_path), "--pmax", "3", "--qmax", "1", "--json"]
    )
    assert rc == 0
    rc, via_recipe = run_json(
        capsys, ["betti", "scroll 2 1", "--pmax", "3", "--qmax", "1", "--json"]
    )
    assert via_file["payload"]["table"] == via_recipe["payload"]["table"]


def test_build_plane_model_recipe(capsys, tmp_path):
    from syzkit.builders import nodal_quintic
    from syzkit.polyring import Ideal, format_ideal_text

    model = nodal_quintic(1, 32003, seed=0)
    quintic = tmp_path / "quintic.txt"
    quintic.write_text(format_ideal_text(Ideal(model.ring, [model.curve])))
    recipe = f"plane-model file={quintic} adjoints=2 node=0,0,1"
    rc, report = run_json(capsys, ["build", recipe, "--json"])
    assert rc == 0
    assert report["payload"]["scheme"]["hilbert"] == {"dimension": 1, "degree": 8}
    assert report["payload"]["scheme"]["generators_by_degree"] == {"2": 3, "3": 2}
    # the node must be where the file says it is
    assert main(["build", f"plane-model file={quintic} adjoints=2 node=0,1,0"]) == 2
    # node= may repeat; the other keys may not, and there are no positionals;
    # the implicitization cutoff is at least 2
    for bad in (
        f"plane-model file={quintic} file={quintic} node=0,0,1",
        f"plane-model file={quintic} adjoints=2 adjoints=3 node=0,0,1",
        f"plane-model 2 file={quintic} node=0,0,1",
        f"plane-model file={quintic} node=0,0,1 cutoff=1",
    ):
        assert main(["build", bad]) == 2
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# input errors all exit 2


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "rnc 1"],  # degree too small
        ["betti", "rnc x"],  # not an integer
        ["betti", "scroll"],  # empty type
        ["betti", "no-such-recipe 3"],
        ["betti", "missing-file.ideal"],  # parsed as recipe, unknown kind
        ["cocycles", "rnc 3", "--p", "2", "--field-char", "9"],  # 9 is not prime-ish
        ["project", "rnc 3", "--point", "0,0,0,0"],
        ["project", "rnc 3", "--point", "1,0"],
        ["syzscheme", "rnc 3"],  # no class selection at all
        ["syzscheme", "rnc 3", "--p", "2", "--class-index", "7"],
        ["syzscheme", "rnc 3", "--p", "2", "--class-coeffs", "0,0"],  # zero class
        ["syzscheme", "rnc 3", "--p", "2", "--class-coeffs", "1"],  # wrong length
        ["betti", "rnc 3", "--field-char", "1"],
        ["betti", "rnc 3", "--field-char", "0"],
        ["betti", "rnc 3", "--field-char", "-7"],
        ["betti", "rnc 3", "--field-char", "2147483659"],  # prime, but >= 2**31
        # prime and far too large: must be refused without trial division
        ["betti", "rnc 3", "--field-char", "18446744073709551629"],
        # recipe options: each kind takes only its own keys, each key once
        ["build", "ci 2 3 sed=7"],
        ["build", "ci 2 3 seed=7 seed=8"],
        ["betti", "rnc 3 bogus=1"],
        ["build", "scroll 2 1 seed=3"],
        # counts below their minimum, and runs that would select no case
        ["verify", "aprodu-proj", "--variety", "rnc 3", "--points", "-3"],
        ["verify", "aprodu-proj", "--variety", "rnc 3", "--points", "0"],
        ["verify", "ep", "--variety", "rnc 3", "--samples", "-1"],
        ["resolve", "rnc 3", "--degree-bound", "-1"],
        ["resolve", "rnc 3", "--length-bound", "-1"],
        ["reconstruct", "rnc 3", "--p", "2", "--points", "0"],
        ["verify", "reconstruct", "--samples", "0"],
        ["betti", "rnc 3", "--entry-budget", "0"],
        ["betti", "rnc 3", "--entry-budget", "-5"],
        ["verify", "ep", "--variety", "rnc 3", "--case", "ep/rnc-3/no-such-case"],
        # the top strand of a line is zero: no class to sample
        ["verify", "ep", "--variety", "scroll 1"],
        # seeds are non-negative; --jobs is not an option
        ["betti", "ci 2 3", "--seed", "-1"],
        ["reconstruct", "rnc 3", "--p", "2", "--seed", "-1"],
        ["verify", "green-small", "--seed", "-1"],
        ["verify", "aprodu-proj", "--seed", "-1"],
        ["verify", "ep", "--seed", "-1"],
        ["build", "ci 2 3 seed=-5"],
        ["verify", "ep", "--variety", "rnc 3", "--jobs", "0"],
        ["verify", "ep", "--variety", "rnc 3", "--jobs", "-3"],
        # an output path that cannot be written
        ["build", "rnc 3", "--out", f"{os.devnull}/rnc3.ideal"],
        ["syzscheme", "rnc 3", "--p", "2", "--out", f"{os.devnull}/syz.ideal"],
        # fields too small for the points a suite samples, and quintics at p = 5
        ["reconstruct", "rnc 3", "--p", "2", "--field-char", "2"],
        ["verify", "aprodu-proj", "--variety", "rnc 3", "--field-char", "2"],
        ["verify", "green-small", "--field-char", "5"],
        ["verify", "nodal-iso", "--field-char", "5"],
        # verify has no --jobs option, and wedge degrees are non-negative
        ["verify", "ep", "--variety", "rnc 3", "--jobs", "2"],
        ["cocycles", "rnc 3", "--p", "-1"],
        ["syzscheme", "rnc 3", "--p", "-1"],
        ["cocycles", "rnc 3"],  # no wedge degree
        # a complete intersection needs at least one degree
        ["build", "ci"],
        ["betti", "ci seed=3"],
    ],
)
def test_bad_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_betti_budget_counts_the_cut_matrix(capsys):
    # the budget counts delta on the Artinian reduction, where the ranks
    # run: 5 of the 9 variables of this scroll are left
    assert main(["betti", "scroll 2 2 2", "--entry-budget", "100"]) == 2
    err = capsys.readouterr().err
    assert "delta_(2,0) in 5 variables has 25 x 10 = 250 entries" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("recipe", ["scroll 2 2 2", "rnc 10", "scroll 3 3 2"])
def test_large_scrolls_pass_the_default_budget(recipe, capsys):
    rc, report = run_json(capsys, ["betti", recipe, "--json"])
    assert rc == 0
    f = sum(int(v) for v in recipe.split()[1:])
    row1 = {e["p"]: e["value"] for e in report["payload"]["table"]["entries"] if e["q"] == 1}
    assert row1 and all(v == en_betti(f, p) for p, v in row1.items())


@pytest.mark.parametrize("char", [2, 3, 2147483647])
def test_betti_grid_same_at_edge_primes(char, capsys):
    def grid(p):
        rc, report = run_json(
            capsys, ["betti", "scroll 2 1", "--field-char", str(p), "--json"]
        )
        assert rc == 0
        assert report["field_char"] == p
        return report["payload"]["table"]["entries"]

    assert grid(char) == grid(32003)


def test_field_char_conflict_with_file(tc_file, capsys):
    rc = main(["betti", tc_file, "--field-char", "31991"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "31991" in err


def test_file_field_wins_when_not_overridden(tc_file, capsys):
    rc, report = run_json(capsys, ["betti", tc_file, "--json"])
    assert rc == 0
    assert report["field_char"] == 32003


def test_unknown_flag_is_usage_error(capsys):
    assert main(["betti", "rnc 3", "--bogus"]) == 2
    assert main(["not-a-command"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["betti", "--help"]) == 0
    capsys.readouterr()


# Run in a fresh interpreter: importing syzkit.cli and a deterministic
# command load no numpy; the first random draw does, and draws the same
# complete intersection as before.
NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
from syzkit.cli import main
assert "concurrent.futures" not in sys.modules, "syzkit.cli loaded concurrent.futures"

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())

run(["betti", "rnc 4", "--json"])
assert "numpy" not in sys.modules, "numpy loaded by a deterministic command"
report = run(["betti", "ci 2 3", "--json"])
assert "numpy" in sys.modules
from syzkit.builders import complete_intersection
print(json.dumps({
    "table": {f"{e['p']},{e['q']}": e["value"]
              for e in report["payload"]["table"]["entries"] if e["value"]},
    "quadric": str(complete_intersection((2, 3)).ideal.gens[0]),
}))
"""


def test_closed_stdout_pipe_exits_141_quietly():
    # the reader is gone before the child writes: `syz resolve ... | head -1`
    src = Path(cli.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "syzkit.cli", "resolve", "rnc 4"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


def test_deterministic_commands_do_not_import_numpy():
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["table"] == {"0,0": 1, "1,1": 1, "1,2": 1, "2,3": 1}
    assert got["quadric"] == (
        "27222*x0^2 + 20384*x0*x1 + 16357*x1^2 + 8633*x0*x2 + 9851*x1*x2 + 1311*x2^2"
        " + 2407*x0*x3 + 528*x1*x3 + 5609*x2*x3 + 26027*x3^2"
    )
