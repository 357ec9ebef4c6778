"""Benchmark of gridforge: plug-in decisions, scenario replay, certification.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload until --seconds have passed, checks
every output, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the same rounds run once untraced and
once traced, and the metrics are the per-layer ones (per round).
Outputs go to perfbench/out/<workload>/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

# One BLAS thread.  With two, each 600x600 eigensolve of certify-mesh
# waits for the slower core, and on a shared 2-CPU host whole runs split
# into a fast and a slow mode (quartile spread 0.38 over ten runs; 0.10
# and 0.13 in two sets with one thread).  Set before numpy loads; the
# fresh interpreters of the set-up inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_import() -> None:
    """Import the command-line module in a new interpreter, as each
    `gridforge` invocation from a shell does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import gridforge.cli"], env=env,
                   check=True, cwd=ROOT)


def run_rounds(workload, *, seconds=None, count=None):
    """Run `count` rounds, or without a count rounds until `seconds` have
    passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.round())
        if count is not None:
            if len(rounds) == count:
                return rounds
        elif time.perf_counter() - start >= seconds:
            return rounds


def command_seconds(rounds):
    return sum(sum(r.values()) for r in rounds)


def percentile_ms(values, q):
    return 1e3 * float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer, n, untraced_s, traced_s):
    """Per-layer metrics of a traced pass of n rounds, each per round."""
    from spans import LAYERS

    total, counts = tracer.total, tracer.counts
    selfs = tracer.self_times()
    solves = tracer.durations("lmi.solve")
    iters = counts["lmi.iters_phase1"] + counts["lmi.iters_phase2"]
    csv_s = total("simulate.trajectory_to_csv")
    run_s = total("simulate.simulate")
    m = {
        "lmi.solves": (counts["lmi.solves"] / n, "count"),
        "lmi.solve_s": (total("lmi.solve") / n, "s"),
        "lmi.solve_p50_ms": (percentile_ms(solves, 50), "ms"),
        "lmi.solve_p90_ms": (percentile_ms(solves, 90), "ms"),
        "lmi.iters_phase1": (counts["lmi.iters_phase1"] / n, "count"),
        "lmi.iters_phase2": (counts["lmi.iters_phase2"] / n, "count"),
        "lmi.ms_per_iter": (1e3 * total("lmi.solve") / iters if iters
                            else 0.0, "ms"),
        "lmi.status_optimal": (counts["lmi.status.Optimal"] / n, "count"),
        "lmi.status_feasible": (counts["lmi.status.Feasible"] / n, "count"),
        "lmi.status_infeasible": (counts["lmi.status.Infeasible"] / n,
                                  "count"),
        "lmi.status_failure": (counts["lmi.status.NumericalFailure"] / n,
                               "count"),
        "synthesis.assemble_s": (total("synthesis.assemble_problem") / n,
                                 "s"),
        "synthesis.self_s": (selfs["synthesis"] / n, "s"),
        "synthesis.granted": (counts["synthesis.granted"] / n, "count"),
        "synthesis.denied": (counts["synthesis.denied"] / n, "count"),
        "synthesis.breakdowns": (counts["synthesis.breakdowns"] / n, "count"),
        "sweep.self_s": (selfs["sweep"] / n, "s"),
        "model.assemble_global_calls": (
            counts["model.assemble_global_calls"] / n, "count"),
        "model.assemble_global_s": (total("model.assemble_global") / n, "s"),
        "certify.check_global_s": (total("certify.check_global") / n, "s"),
        "certify.theorem1_s": (total("certify.check_theorem1") / n, "s"),
        "certify.kernel_s": (total("certify.check_lasalle_kernel") / n, "s"),
        "certify.to_json_s": (total("certify.certificate_to_json") / n, "s"),
        "certify.self_s": (selfs["certify"] / n, "s"),
        "simulate.run_s": (run_s / n, "s"),
        "simulate.samples": (counts["simulate.samples"] / n, "count"),
        "simulate.samples_per_s": (counts["simulate.samples"] / run_s
                                   if run_s else 0.0, "1/s"),
        "simulate.plug_in_s": (total("simulate.attempt_plug_in") / n, "s"),
        "simulate.csv_s": (csv_s / n, "s"),
        "simulate.csv_bytes": (counts["simulate.csv_bytes"] / n, "bytes"),
        "simulate.csv_mb_per_s": (counts["simulate.csv_bytes"] / 1e6 / csv_s
                                  if csv_s else 0.0, "MB/s"),
        "simulate.event_log_s": (total("simulate.write_event_log") / n, "s"),
        "simulate.self_s": (selfs["simulate"] / n, "s"),
        "cli.load_scenario_s": (total("cli.load_scenario") / n, "s"),
        "cli.load_bundle_s": (total("cli.load_bundle") / n, "s"),
        "cli.self_s": (selfs["cli"] / n, "s"),
        "bench.self_s": (selfs["bench"] / n, "s"),
        "trace.wall_s": (total("bench.pass") / n, "s"),
        "trace.overhead_s": ((traced_s - untraced_s) / n, "s"),
    }
    accounted = sum(selfs[layer] for layer in LAYERS)
    return m, abs(accounted - total("bench.pass")) <= 1e-9 * (
        1.0 + total("bench.pass"))


def main(argv=None) -> None:
    args = parse_args(argv)
    if not (SRC / "gridforge" / "__init__.py").is_file():
        fail(f"no gridforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import gridforge.cli  # noqa: F401
    except ImportError as exc:
        fail(f"cannot import gridforge: {exc}")
    import spans
    from workloads import WORKLOADS

    out = HERE / "out" / args.workload
    workload = WORKLOADS[args.workload](out, args.seed)

    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fresh_import()
        workload.prepare()
        setup.append(time.perf_counter() - start)

    store: dict = {}
    with spans.instrument(None, store):
        rounds = run_rounds(workload, seconds=args.seconds)
    untraced_s = command_seconds(rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    count = len(rounds)

    if args.trace:
        tracer = spans.Tracer()
        with spans.instrument(tracer, store), tracer.span("bench.pass"):
            traced = run_rounds(workload, count=count)
        metrics, accounted = layer_metrics(tracer, count, untraced_s,
                                           command_seconds(traced))
        if not accounted:
            workload.problems.append("layer self times do not add up to "
                                     "the traced wall time")
        tracer.write(out / "spans.jsonl")
        count *= 2
    else:
        metrics = {
            "ops_per_s": (statistics.median(
                workload.ops_per_round / sum(r.values()) for r in rounds),
                "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }

    workload.check(store, count)
    for line in workload.errors:
        print(f"failed: {line}", file=sys.stderr)
    for line in workload.problems:
        print(f"incorrect: {line}", file=sys.stderr)
    result = {
        "correct": not workload.problems,
        "attempted": workload.ops_per_round * count,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    text = json.dumps(result)
    (out / f"result-trace{args.trace}.json").write_text(text + "\n")
    (out / f"rounds-trace{args.trace}.json").write_text(json.dumps(
        {"setup_s": setup, "rounds": [{str(k): v for k, v in r.items()}
                                      for r in rounds]}) + "\n")
    print(text)


if __name__ == "__main__":
    main()
