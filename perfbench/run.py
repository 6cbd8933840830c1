"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

A run repeats whole workload cycles (set-up, serving window or churn
run, audit) for ``--seconds`` seconds, at least three times, and reports
the median of each metric over its cycles, in reference seconds (see
``refclock.py``).  Every cycle must pass its correctness gate and repeat
the previous cycles' exact counts, or the run prints no timings and
exits 1.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced cycles and prints the
per-layer metrics: medians over the traced cycles, plus the tracing
overhead (traced minus untraced ``total_s``).  The last line of standard
output is one JSON object; the line before it (``detail``) carries the
raw wall seconds next to each timing, and the same detail is written to
``.perfbench_out/`` in the checkout, with the spans of the last traced
cycle.
"""

from __future__ import annotations

import argparse
import json
import os
from statistics import median
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: The seed used while developing a change, and the seed held out for
#: confirming a claim afterwards, so a gain is not tuned to one input.
DEFAULT_SEED = 1
HELD_OUT_SEED = 977

#: A run holds at least this many measured cycles (traced: half traced).
MIN_CYCLES = 3
MIN_TRACED_CYCLES = 4
#: Share of the full size a warm-up cycle runs at before measuring.
WARMUP_SCALE = 0.1

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("audit_s", "s"),
    ("total_s", "s"),
    ("memrefs_per_packet", "refs"),
    ("peak_rss_mb", "MB"),
]
WALL = ("wall.setup_s", "wall.window_s", "wall.audit_s", "wall.total_s", "wall.speed_factor")


def _seed(text: str) -> int:
    if text == "default":
        return DEFAULT_SEED
    if text == "held-out":
        return HELD_OUT_SEED
    return int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument(
        "--seed", type=_seed, default=DEFAULT_SEED,
        help="an integer, 'default' (%d) or 'held-out' (%d)" % (DEFAULT_SEED, HELD_OUT_SEED),
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cycle_times(cycle, samples):
    """End-to-end times of one cycle: reference and raw seconds."""
    from refclock import phase_time

    phases = cycle.marks.phases()
    setup = phase_time(phases["setup"], samples)
    window = phase_time(phases["window"], samples)
    audit = phase_time(phases["audit"], samples)
    total = phase_time(cycle.marks.stretches(), samples)
    times = {
        "setup_s": setup.reference_s,
        "ops_per_s": cycle.ops / window.reference_s,
        "audit_s": audit.reference_s,
        "total_s": total.reference_s,
        "memrefs_per_packet": cycle.counts["memrefs_per_packet"],
        "wall.setup_s": setup.wall_s,
        "wall.window_s": window.wall_s,
        "wall.audit_s": audit.wall_s,
        "wall.total_s": total.wall_s,
        "wall.speed_factor": total.speed_factor(),
        "median_sample_s": total.median_sample_s,
    }
    if "baseline" in phases:
        baseline = phase_time(phases["baseline"], samples)
        times["baseline_lookups_per_s"] = (
            cycle.counts["baseline_served"] / baseline.reference_s
        )
    return times


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Warm up, then run cycles for ``seconds``; returns the run's record."""
    import gc

    from layers import HOOKS, layer_metrics
    from refclock import Sampler
    from tracer import Tracer
    from workloads import WORKLOADS, Marks

    workload = WORKLOADS[name]
    clock = time.perf_counter
    warmup = workload.cycle(seed, Marks(clock), scale=WARMUP_SCALE)
    errors = ["warm-up: %s" % error for error in warmup.errors]
    del warmup
    gc.collect()
    minimum = MIN_TRACED_CYCLES if trace else MIN_CYCLES
    cycles = []
    last_spans = None
    unhooked = set()
    with Sampler(clock) as sampler:
        started = clock()
        while not errors:
            tracer = Tracer(clock) if trace and len(cycles) % 2 == 1 else None
            if tracer is not None:
                tracer.install(HOOKS)
                unhooked.update(tracer.unhooked)
            try:
                cycle = workload.cycle(seed, Marks(clock, tracer))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if cycle.errors:
                errors.extend(cycle.errors)
                break
            if cycle.finish is not None:
                cycle.finish()
            record = {
                "marks": cycle.marks.times,
                "traced": tracer is not None,
                "times": cycle_times(cycle, sampler.samples),
                "exact": cycle.exact,
                "attempted": cycle.attempted,
                "failed": cycle.failed,
            }
            if tracer is not None:
                record["layers"] = layer_metrics(
                    workload.kind,
                    cycle,
                    tracer,
                    sampler.samples,
                    record["times"]["median_sample_s"],
                    record["times"].get("baseline_lookups_per_s", 0.0),
                )
                last_spans = tracer.spans
            if cycles and cycle.exact != cycles[0]["exact"]:
                errors.append(
                    "nondeterminism: exact counts %r differ from %r"
                    % (cycle.exact, cycles[0]["exact"])
                )
            cycles.append(record)
            del cycle, tracer
            gc.collect()
            done = len(cycles)
            elapsed = clock() - started
            if done >= minimum and elapsed * (done + 1) / done > seconds:
                break
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "errors": errors,
        "cycles": cycles,
        "samples": len(sampler.samples),
        "sample_intervals": sampler.samples,
        "skipped_samples": sampler.skipped,
        "unhooked": sorted(unhooked),
    }, last_spans


def summarize(run):
    """The result object printed last, plus the detail kept beside it."""
    import resource

    from layers import PER_LAYER

    cycles = run["cycles"]
    result = {
        "correct": not run["errors"],
        "attempted": sum(c["attempted"] for c in cycles) or 1,
        "failed": sum(c["failed"] for c in cycles),
        "metrics": {},
    }
    detail = {
        key: run[key]
        for key in ("workload", "seed", "trace", "errors", "samples", "skipped_samples", "unhooked")
    }
    detail["cycles"] = [
        {"traced": c["traced"], "times": c["times"]} for c in cycles
    ]
    detail["exact"] = cycles[0]["exact"] if cycles else None
    if run["errors"]:
        return result, detail
    plain = [c for c in cycles if not c["traced"]]
    traced = [c for c in cycles if c["traced"]]
    detail["wall"] = {
        key: median([c["times"][key] for c in plain]) for key in WALL
    }
    if not run["trace"]:
        for key, unit in END_TO_END:
            if key == "peak_rss_mb":
                value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            else:
                value = median([c["times"][key] for c in plain])
            result["metrics"][key] = {"value": value, "unit": unit}
        return result, detail
    overhead = median([c["times"]["total_s"] for c in traced]) - median(
        [c["times"]["total_s"] for c in plain]
    )
    for key, unit, _better in PER_LAYER:
        if key == "trace.overhead_s":
            value = overhead
        elif key == "trace.unhooked_hooks":
            value = len(run["unhooked"])
        else:
            value = median([c["layers"][key] for c in traced])
        result["metrics"][key] = {"value": value, "unit": unit}
    return result, detail


def run_one(args) -> int:
    run, spans = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result, detail = summarize(run)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(
        OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    )
    with open(stem + ".json", "w") as handle:
        json.dump(
            {
                "result": result,
                "detail": detail,
                "marks": [cycle["marks"] for cycle in run["cycles"]],
                "samples": run["sample_intervals"],
            },
            handle,
        )
    if spans is not None:
        with open(stem + "-spans.json", "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "phase"], "spans": spans},
                handle,
            )
    for error in run["errors"]:
        print("FAILED: %s" % error, file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time; one summary line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and not done.returncode
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for metric, value in result["metrics"].items():
            print("%-18s %-36s %16.6g %s" % (name, metric, value["value"], value["unit"]))
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    # One thread per process: numpy's thread pools would compete with the
    # timed work on a small host.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(
            "perfbench: unknown workload %r (choose from %s, all)"
            % (args.workload, ", ".join(WORKLOADS)),
            file=sys.stderr,
        )
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
