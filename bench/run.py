"""syzkit benchmark: run one workload's `syz` commands in this process,
check every output, and print the end-to-end or the per-layer metrics.

    python3 bench/run.py --workload oracle --seed 0 --seconds 38 --trace 0
    python3 bench/run.py --workload all

Run it from anywhere inside a source tree of syzkit: the program is
imported from the tree's `src/`, never from an installed copy.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines above it are a readable
table.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads are fixed before numpy loads (it loads with syzkit), so every
# run uses the same count, at most the two cores of the reference machine.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference_digests.json"
REFERENCE_SEED = 0  # the program's default --seed
WORKLOADS = ("oracle", "koszul-betti", "geometry-suites")
# Each launch takes about 0.3-0.4 s, and launches in a row vary by up to
# 20%; the median of 25 moves by a few percent at most.
SETUP_REPEATS = 25

END_TO_END = (
    ("wall_s", "s"),
    ("job_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def percentile(values, q: float) -> tuple[float, int]:
    """The q-th percentile (0-100) of values, interpolating linearly
    between closest ranks, and the number of samples it was taken over."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs)


def measure_setup(repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter until `syzkit.cli` is
    imported and the interpreter has exited, once per repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import syzkit.cli"],
            env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def import_program():
    """The syzkit.cli module of this tree's src/; exits with an error
    message, and without a result line, when there is none."""
    if not (SRC / "syzkit" / "cli.py").is_file():
        sys.exit(f"error: no syzkit source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import syzkit.cli

    if Path(syzkit.cli.__file__).resolve().parent != SRC / "syzkit":
        sys.exit(f"error: imported syzkit from {syzkit.cli.__file__}, not from {SRC}")
    return syzkit.cli


def run_pass(workloads, plan: dict, cli, seed: int, reference):
    runner = workloads.Runner(cli, seed, reference)
    start = time.perf_counter()
    for unit in plan.values():
        unit(runner)
    return time.perf_counter() - start, runner


def _line(name, value, unit, samples, extra=""):
    print(f"  {name:<36} {value:>14.6g} {unit:<6} n={samples:<5} {extra}")


def run_workload(args) -> int:
    if args.seed < 0:
        sys.exit("error: --seed must be >= 0")
    cli = import_program()
    os.chdir(ROOT)
    setup = measure_setup(SETUP_REPEATS)

    import tracing
    import workloads

    reference = None
    if args.seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    plan = workloads.PLANS[args.workload](args.seed)

    walls, jobs, problems = [], [], []
    digests = None
    start = time.perf_counter()
    while True:
        wall, runner = run_pass(workloads, plan, cli, args.seed, reference)
        walls.append(wall)
        jobs.extend(runner.jobs)
        if digests is None:
            digests = runner.digests
        elif runner.digests != digests:
            problems.append("reports differ between two untraced passes")
        # a traced run keeps room for its traced pass inside --seconds
        if time.perf_counter() - start + wall * (1 + args.trace) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layer_values, traced_jobs = None, []
    if args.trace:
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            traced_wall, traced = run_pass(workloads, plan, cli, args.seed, reference)
        finally:
            tracing.uninstall(installed)
        traced_jobs = traced.jobs
        if traced.digests != digests:
            problems.append("traced and untraced reports differ")
        layer_values = tracing.layer_metrics(
            tracer.spans, installed.missing, traced_wall, statistics.median(walls)
        )

    attempted = jobs + traced_jobs
    failed = [j for j in attempted if j.failure]
    latencies = [j.seconds for j in jobs]
    p90, p90_n = percentile(latencies, 90)
    q1, med, q3 = percentile(walls, 25)[0], statistics.median(walls), percentile(walls, 75)[0]
    values = {
        "wall_s": med,
        "job_p90_s": p90,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"workload {args.workload}: seed {args.seed}, {len(walls)} untraced pass(es), "
          f"closed loop, 1 client, --jobs 1, OpenBLAS threads {BLAS_THREADS} "
          f"(nproc {os.cpu_count()}), python {sys.version.split()[0]}")
    _line("wall_s", med, "s", len(walls), f"q1 {q1:.4f} q3 {q3:.4f}")
    _line("job_p90_s", p90, "s", p90_n, f"median job {percentile(latencies, 50)[0]:.4f}")
    _line("setup_s", values["setup_s"], "s", len(setup),
          f"q1 {percentile(setup, 25)[0]:.4f} q3 {percentile(setup, 75)[0]:.4f}")
    _line("peak_rss_mb", peak_rss_mb, "MB", 1)
    _line("failed_jobs_ratio", len(failed) / len(attempted), "ratio", len(attempted),
          f"{len(failed)} of {len(attempted)} jobs failed")
    for job in failed[:20]:
        print(f"  FAILED {job.id}: {job.failure}")
    for problem in problems:
        print(f"  FAILED check: {problem}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if layer_values is not None:
        wall_t = layer_values["trace.wall_s"]
        print(f"per-layer split of one traced pass ({wall_t:.3f} s, "
              f"{layer_values['trace.spans']} spans):")
        for layer in installed.missing:
            print(f"  MISSING layer function {layer}: not found, reported as 0")
        for binding in installed.stale:
            print(f"  note: {binding} no longer binds its layer function")
        for binding in installed.unlisted:
            print(f"  note: {binding} binds a layer function but is not listed")
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            value = layer_values[name]
            share = f"{100 * value / wall_t:5.1f}% of traced wall" if unit == "s" and wall_t else ""
            _line(name, value, unit, 1, share)
            metrics[name] = {"value": value, "unit": unit}
        for name, unit in tracing.TRACE_ONLY:
            _line(name, layer_values[name], unit, 1)

    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED,
                        help="workload seed; at 0 reports are also checked "
                             "against bench/reference_digests.json")
    parser.add_argument("--seconds", type=float, default=38,
                        help="run untraced passes back to back, at least one, "
                             "starting none that would end after this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced pass and print per-layer metrics")
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(run_all(arguments) if arguments.workload == "all" else run_workload(arguments))
