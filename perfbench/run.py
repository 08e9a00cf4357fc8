"""Benchmark for anonatom: CSV audit, entailment sweeps and the cold oracle.

    python3 perfbench/run.py --workload audit-csv --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick     # every workload's checks at small sizes

Run from the root of a checkout; the program is imported from ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  README.md says
what each workload and metric is.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import NullTracer, Tracer, median_or_zero
from workloads import WORK, WORKLOADS, Failed, probe_parts

START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3

PER_LAYER = (
    ("teamio.read_team_csv_ms", "ms"), ("teamio.rows_parsed", "count"), ("teamio.duplicate_rows", "count"),
    ("team.construct_ms", "ms"), ("team.sorted_rows_ms", "ms"), ("team.group_by_ms", "ms"),
    ("atoms.anonymity_degree_ms", "ms"), ("atoms.group_distinct_counts_ms", "ms"),
    ("atoms.check_k_anonymity_ms", "ms"), ("atoms.groups", "count"), ("atoms.satisfies_grid_us", "us"),
    ("teamlogic.evaluate_ms", "ms"),
    ("syntax.parse_us", "us"),
    ("inference.entails_anonymity_us", "us"), ("inference.verify_derivation_us", "us"),
    ("inference.derivation_nodes", "count"), ("inference.entails_k_saturate_ms", "ms"),
    ("inference.entails_k_simple_ms", "ms"), ("inference.closure_atoms", "count"),
    ("countermodel.ternary_ms", "ms"), ("countermodel.verify_countermodel_us", "us"),
    ("countermodel.candidate_teams_ms", "ms"), ("countermodel.truncated_ms", "ms"),
    ("countermodel.grid_rows", "count"), ("countermodel.domain_size", "count"),
    ("oracle.cold_ms", "ms"), ("oracle.cold_rss_mb", "MB"), ("oracle.teams_checked", "count"),
    ("oracle.warm_us", "us"),
    ("cli.main_ms", "ms"), ("cli.process_overhead_ms", "ms"), ("cli.report_bytes", "bytes"),
)
# Values measured per call rather than as span durations or counts.
SAMPLED = {"oracle.cold_rss_mb", "cli.process_overhead_ms"}
SPAN_SCALE = {"ms": 1e6, "us": 1e3}


def measure(workload, tracer, *, seconds=0, probe=False):
    """Repeat the workload's round of operations, one operation at a time,
    until ``seconds`` have passed (at least one round).  Returns the wall
    time in ns of every operation, by round; the failed count; failure
    reasons with their counts; and wrong outputs."""
    rounds, failed, faults, wrong = [], 0, {}, []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        times = []
        for op in workload.ops:
            tracer.op = len(rounds), len(times)
            t0 = time.perf_counter_ns()
            try:
                out = tracer.call("op", workload.run, op, tracer)
            except Exception:  # the program raised: count a failed operation, keep going
                times.append(time.perf_counter_ns() - t0)
                reason = traceback.format_exc().strip().splitlines()[-1]
                failed += 1
                faults[reason] = faults.get(reason, 0) + 1
                continue
            times.append(time.perf_counter_ns() - t0)
            try:
                workload.check(op, out)
            except Failed as exc:
                failed += 1
                faults[str(exc)] = faults.get(str(exc), 0) + 1
            except Exception as exc:  # Incorrect, or an output too malformed to read
                wrong.append(f"{type(exc).__name__}: {exc}")
            if probe:
                tracer.call("probe", workload.probe, op, tracer, out)
        rounds.append(times)
    return rounds, failed, faults, wrong


def summarize(rounds, failed, faults, wrong):
    """Print failures and wrong outputs; return (correct, ops_per_s, op_p50_ms).

    Every round runs the same operations, so each operation's time is its
    fastest over the rounds: slowdowns from other load on the machine only
    ever add time.  Throughput is the round's length over the sum of those
    times, latency their median."""
    attempted = sum(map(len, rounds))
    for reason, n in faults.items():
        print(f"FAILED {n} of {attempted} operations: {reason}")
    for message in wrong[:5]:
        print(f"INCORRECT: {message}")
    if len(wrong) > 5:
        print(f"INCORRECT: ... {len(wrong) - 5} more")
    best = [min(times) for times in zip(*rounds)]
    return not wrong, len(best) / (sum(best) / 1e9), statistics.median(best) / 1e6


def setup_seconds(args):
    """Median set-up time over SETUP_REPEATS fresh interpreters, each paying
    the imports, the input generation and the warm-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples = [
        float(subprocess.run(command, stdout=subprocess.PIPE, check=True).stdout.split()[-1])
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(samples)


def layer_metrics(tracer, rounds):
    """Per-layer metrics: the median span time or sample per call, and
    counts per round (every round does the same work, so they repeat exactly)."""
    out = {}
    for name, unit in PER_LAYER:
        if name in SAMPLED:
            value = median_or_zero(tracer.samples.get(name, ()))
        elif unit in SPAN_SCALE:
            value = median_or_zero(tracer.durations(name.rsplit("_", 1)[0])) / SPAN_SCALE[unit]
        else:
            value = tracer.counts.get(name, 0) // rounds
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(args):
    setup = None if args.trace else setup_seconds(args)
    workload = WORKLOADS[args.workload](args.seed, False)
    tracer = Tracer() if args.trace else NullTracer()
    rounds, failed, faults, wrong = measure(workload, tracer, seconds=args.seconds, probe=bool(args.trace))
    correct, ops_per_s, p50_ms = summarize(rounds, failed, faults, wrong)
    if args.trace:
        print(f"traced end-to-end: {len(rounds)} rounds, ops_per_s {ops_per_s:.4f}, op_p50_ms {p50_ms:.4f}")
        for layer, ns in sorted(tracer.self_times().items(), key=lambda item: -item[1]):
            print(f"self time {layer:<13} {ns / 1e6:12.3f} ms")
        path = WORK / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(path)
        print(f"trace written to {path.relative_to(ROOT)}")
        metrics = layer_metrics(tracer, len(rounds))
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": workload.peak_rss_mb(), "unit": "MB"},
        }
    attempted = sum(map(len, rounds))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_quick(args):
    """One plain and one traced round of every workload at small sizes."""
    total, failures, all_correct = 0, 0, True
    for name in [args.workload] if args.workload else WORKLOADS:
        started = time.perf_counter()
        workload = WORKLOADS[name](args.seed, True)
        for tracer in (NullTracer(), Tracer()):
            rounds, failed, faults, wrong = measure(workload, tracer, probe=isinstance(tracer, Tracer))
            correct, _, _ = summarize(rounds, failed, faults, wrong)
            total, failures, all_correct = total + len(rounds[0]), failures + failed, all_correct and correct
        print(f"quick {name}: {'correct' if all_correct else 'INCORRECT'} "
              f"in {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": all_correct, "attempted": total, "failed": failures, "metrics": {}}))
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("audit-csv", "entail-sweep", "entail-k", "oracle-cold"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small sizes, one round, all checks")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "anonatom" / "__init__.py").is_file():
        print(f"perfbench: no anonatom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe:
        tracer = Tracer()
        probe_parts(tracer, json.loads(Path(args.probe).read_text(encoding="utf-8")))
        print(json.dumps(tracer.export()))
        return 0
    if args.quick:
        return run_quick(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, False)
        print(time.perf_counter() - START)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
