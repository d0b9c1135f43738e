#!/usr/bin/env python3
"""tepperlab benchmark: one workload per run, closed loop, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; tepperlab is imported from its ``src``
directory.  The workload's seeded item list runs in passes, each item only
after the previous one finished, in this single process with no threads.
Passes repeat until the next one would end after ``--seconds``, with a floor
of the workload's ``min_passes``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under the tracer and prints the per-layer
metrics, a table of each layer's share of self time, and writes the first
traced pass's spans to ``perfbench/out/``.  ``--workload all`` runs every
workload in its own process and prints all of their metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when every
check passed.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from calibration import Calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 11
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import tepperlab.cli; tepperlab.cli.build_parser()"
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)


@dataclass
class PassResult:
    start: float
    end: float
    wall_s: float
    latencies: list[float]
    failures: list[str]
    outcomes: list
    stdout_digest: str = ""
    stdout_bytes: int = 0
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    scale: float = 1.0  # calibration factor for this pass


def percentile(ordered: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    position = (len(ordered) - 1) * pct / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    return max((p for p in TAIL_LADDER if samples * (100 - p) / 100 >= 10), default=50)


def measure_setup() -> float:
    """Median time for a fresh interpreter to import tepperlab and build the CLI parser.

    One extra start comes first and is not counted: it may compile bytecode.
    """
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def run_pass(items, recorder, calibration) -> PassResult:
    """One pass over the items; the pass time is the sum of the item times,
    so reference timings taken between items do not count."""
    gc.collect()
    latencies, failures, outcomes = [], [], []
    clock = time.perf_counter
    pass_start = clock()
    for item in items:
        calibration.sample_if_due()
        start = clock()
        try:
            outcome = item() if recorder is None else recorder.span(tracer.ITEM_SPAN, item)
        except Exception as exc:  # a failed check or a crash both fail the item
            failures.append(f"{type(exc).__name__}: {exc}")
            outcome = None
        latencies.append(clock() - start)
        outcomes.append(outcome)
    stdout = "".join(o.stdout for o in outcomes if o is not None).encode()
    result = PassResult(pass_start, clock(), sum(latencies), latencies, failures, outcomes, hashlib.sha256(stdout).hexdigest(), len(stdout))
    if recorder is not None:
        result.spans, result.counters = recorder.take()
    return result


def run_passes(workload, items, seconds: float, recorder, calibration) -> list[PassResult]:
    """Closed loop over the item list; with a recorder, every second pass is traced."""
    deadline = time.perf_counter() + seconds
    passes: list[PassResult] = []
    while True:
        traced = recorder is not None and len(passes) % 2 == 1
        if traced:
            recorder.install()
        try:
            passes.append(run_pass(items, recorder if traced else None, calibration))
        finally:
            if traced:
                recorder.uninstall()
        if len(passes) < workload.min_passes:
            continue
        if time.perf_counter() + statistics.median(p.wall_s for p in passes) > deadline:
            break
    for p in passes:
        p.scale = calibration.factor(p.start, p.end)
    return passes


def growth(passes: list[PassResult]) -> tuple[float, list[str]]:
    """Least-squares exponent of verify_conjecture time against degree, from
    the per-degree medians, with the exponent between neighbouring degrees."""
    by_degree: dict[int, list[float]] = {}
    for p in passes:
        for outcome in p.outcomes:
            if outcome is not None and outcome.symbolic is not None:
                degree, seconds = outcome.symbolic
                by_degree.setdefault(degree, []).append(seconds)
    if len(by_degree) < 2:
        return 0.0, []
    points = sorted((math.log(d), math.log(statistics.median(s))) for d, s in by_degree.items())
    mean_x = statistics.fmean(x for x, _ in points)
    mean_y = statistics.fmean(y for _, y in points)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum((x - mean_x) ** 2 for x, _ in points)
    degrees = sorted(by_degree)
    notes = [
        f"{a}->{b}: {(y2 - y1) / (x2 - x1):.2f}"
        for (a, (x1, y1)), (b, (x2, y2)) in zip(zip(degrees, points), zip(degrees[1:], points[1:]))
    ]
    return slope, notes


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def time_metrics(passes: list[PassResult], tail: float, scaled: bool) -> dict[str, float]:
    """Pass-time metrics, each pass scaled by its calibration factor when
    ``scaled``.  The tail is taken on unscaled latencies and multiplied by the
    median factor: scaling passes separately would add the noise of each
    factor to the extremes."""
    scales = [p.scale if scaled else 1.0 for p in passes]
    measured_s = sum(p.wall_s * s for p, s in zip(passes, scales))
    latencies = sorted(t * s for p, s in zip(passes, scales) for t in p.latencies)
    unscaled = sorted(t for p in passes for t in p.latencies)
    return {
        "wall_s": measured_s / len(passes),
        "items_per_s": len(latencies) / measured_s,
        "item_p50_ms": percentile(latencies, 50) * 1e3,
        "item_tail_ms": percentile(unscaled, tail) * statistics.median(scales) * 1e3,
    }


def end_to_end(workload, items, passes: list[PassResult], setup_s: float) -> dict:
    """The end-to-end metrics.  Pass times are scaled by calibration;
    setup_s stays as measured, since process start-up does not follow the
    reference workload."""
    samples = sum(len(p.latencies) for p in passes)
    tail = tail_percentile(len(items) * workload.min_passes)
    print(f"# {len(passes)} passes of {len(items)} items; item_tail_ms is p{tail:g} over {samples} samples")
    print(f"# unscaled {json.dumps(time_metrics(passes, tail, scaled=False))}")
    units = {"wall_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms"}
    metrics = {"setup_s": metric(setup_s, "s")}
    for name, value in time_metrics(passes, tail, scaled=True).items():
        metrics[name] = metric(value, units[name])
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return metrics


def per_layer(workload, passes: list[PassResult], spans_path: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and any check that failed."""
    untraced, traced = passes[0::2], passes[1::2]
    folds = [tracer.fold(p.spans) for p in traced]
    problems = []
    calls = {name: folds[0].get(name, (0, 0))[0] for name in tracer.SPAN_NAMES}
    for f, p in zip(folds[1:], traced[1:]):
        if {n: f.get(n, (0, 0))[0] for n in calls} != calls or p.counters != traced[0].counters:
            problems.append("call counts differ between traced passes of the same items")
    missing = sorted(name for name in workload.layers if calls[name] == 0)
    if missing:
        problems.append(f"no calls recorded for {', '.join(missing)}")

    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.calls"] = metric(calls[name], "count")
        self_s = statistics.median(f.get(name, (0, 0))[1] / 1e9 * p.scale for f, p in zip(folds, traced))
        metrics[f"{name}.self_s"] = metric(self_s, "s")
    assignments = traced[0].counters.get("occupancy.oracle.assignments", 0)
    metrics["occupancy.oracle.assignments"] = metric(assignments, "count")
    metrics["cli.stdout_bytes"] = metric(passes[0].stdout_bytes, "bytes")
    bits = max((o.coeff_bits for p in passes for o in p.outcomes if o is not None), default=0)
    metrics["poly.max_coeff_bits"] = metric(bits, "bits")
    exponent, segments = growth(untraced)
    metrics["diffcalc.symbolic.growth_exp"] = metric(exponent, "exponent")
    # Each traced pass against the untraced pass just before it, so that a
    # slow spell of the machine does not read as tracing cost.
    overhead = statistics.median((t.wall_s * t.scale) / (u.wall_s * u.scale) for u, t in zip(untraced, traced)) - 1
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")

    total = sum(self_ns for f in folds for _, self_ns in f.values())
    shares = {name: sum(f.get(name, (0, 0))[1] for f in folds) / total for name in (*tracer.SPAN_NAMES, tracer.ITEM_SPAN)}
    print(f"# self-time share on {workload.name} over {len(traced)} traced passes ({tracer.ITEM_SPAN}: checks and unwrapped code)")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        if share > 0:
            print(f"#   {name:<24} {share:7.2%}  calls/pass {calls.get(name, len(traced[0].latencies))}")
    if segments:
        print(f"# diffcalc.symbolic growth exponent {exponent:.2f} ({', '.join(segments)})")
    print(f"# trace.overhead_frac {overhead:.3f}")

    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(traced[0].spans, spans_path)
    return metrics, problems


def run_all(args) -> int:
    """Every workload in its own process; metric names get the workload as prefix."""
    import workloads  # noqa: F401  (fails early when tepperlab is missing)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        lines = child.stdout.splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {child.returncode})", file=sys.stderr)
            return 1
        for key, value in result["metrics"].items():
            print(f"{name:<18} {key:<32} {value['value']:>14.6g} {value['unit']}")
            combined["metrics"][f"{name}.{key}"] = value
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tepperlab" / "__init__.py").is_file():
        print(f"error: no tepperlab source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload]
    items = workload.make_items(random.Random(args.seed))

    calibration = Calibration(workload.reference)
    setup_s = measure_setup() if args.trace == 0 else None
    passes = run_passes(workload, items, args.seconds, tracer.Tracer() if args.trace else None, calibration)
    scales = [p.scale for p in passes]
    print(f"# pass times scaled by {min(scales):.3f}..{max(scales):.3f} (median {statistics.median(scales):.3f}) from {len(calibration.samples)} reference timings; see calibration.py")

    failures = [f for p in passes for f in p.failures]
    problems = []
    if len({p.stdout_digest for p in passes}) != 1:
        problems.append("stdout differs between passes over the same requests")
    if args.trace:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        metrics, trace_problems = per_layer(workload, passes, spans_path)
        problems += trace_problems
    else:
        metrics = end_to_end(workload, items, passes, setup_s)
    attempted = sum(len(p.latencies) for p in passes)
    print(f"# failed_frac {len(failures)}/{attempted} = {len(failures) / attempted:g}")
    for message in sorted(set(failures))[:10] + problems:
        print(f"# FAILED {message}")
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
