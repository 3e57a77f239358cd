"""One benchmark run in one process: set up, run the fixed operation list in
a closed loop with a single caller, check every result, print the metrics.

Started by run.py with a fixed PYTHONHASHSEED and PYTHONPATH=src. With
`--setup-only` it sets up, prints the set-up time as one JSON line and exits:
run.py starts several such processes to take the median set-up time.
"""

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

import kernel
import workloads
from spans import LAYERS, Tracer

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
# Candidate percentiles for op_tail_ms, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def setup(workload, seed, rounds, sampler, launched):
    """Process start to first operation: interpreter start, the imports of
    enrlat and of the benchmark's modules, and the seeded input generation.
    `launched` is run.py's CLOCK_MONOTONIC reading just before it started
    this process; the sampler's clock reads the same clock. Returns the
    setup span on the sampler's clock, the plan and the measured modules."""
    importlib.import_module("enrlat")
    mods = {name: sys.modules["enrlat." + name] for name in LAYERS}
    plan = workloads.OPS[workload](workloads.INPUTS[workload](seed, rounds), mods)
    span = (launched, sampler.clock())
    gc.collect()
    gc.freeze()
    return span, plan, mods


def tail_percentile(n):
    """Highest ladder percentile with at least ten operations beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return 50.0


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def run_plan(plan, tracer, clock):
    """Closed loop over the plan, one caller. Returns per-operation records
    (kind, start, end, failed) and the spans of the collections between
    operations on `clock`, and whether every operation behaved: the ones
    not marked `expect_failure` returned a result that checked out, and
    the marked ones failed.

    The cyclic garbage collector runs between operations, not inside them
    (as in timeit): where a collection lands otherwise depends on the
    operations before it, and it doubled the time of some millisecond
    operations but not of their repeats. The collections are timed and
    count in ops_per_s, not in the per-operation times."""
    from enrlat.errors import EnrLatError

    failures = (EnrLatError, AssertionError, workloads.MissingInput)
    runs, collections, bad = [], [], []
    gc.disable()
    for i, op in enumerate(plan.ops):
        c0 = clock()
        gc.collect()
        c1 = clock()
        collections.append((c0, c1))
        if tracer:
            tracer.begin_op(i)
        failed = False
        t0 = clock()
        try:
            res = op.run()
        except failures as exc:
            failed = True
            res = exc
        t1 = clock()
        if tracer:
            tracer.end_op()
        runs.append((op.kind, t0, t1, failed))
        if failed and not op.expect_failure:
            bad.append("%d:%s failed: %s: %s" % (i, op.kind, type(res).__name__, res))
        elif op.expect_failure and not failed:
            bad.append("%d:%s was expected to fail and did not" % (i, op.kind))
        elif not failed and not op.check(res):
            bad.append("%d:%s wrong result" % (i, op.kind))
    gc.enable()
    for line in bad:
        print("operation " + line, file=sys.stderr)
    return runs, collections, not bad


def run_after(plan):
    """Checks that span several operations; True when all hold."""
    bad = [extra.__name__ for extra in plan.after if not extra()]
    if bad:
        print("wrong results: " + ", ".join(bad), file=sys.stderr)
    return not bad


def summarise(records, collections, normalised):
    """ops_per_s divides by the time of every operation, failed ones
    included, plus the collections between them; the percentiles are of the
    completed operations alone."""
    def scale(dt, f):
        return dt * (f if normalised else 1.0)

    done = sorted(scale(dt, f) for _, dt, f, failed in records if not failed)
    total = (sum(scale(dt, f) for _, dt, f, _ in records)
             + sum(scale(dt, f) for dt, f in collections))
    p = tail_percentile(len(done))
    return {
        "ops_per_s": len(done) / total,
        "op_p50_ms": statistics.median(done) * 1000.0,
        "op_tail_ms": nearest_rank(done, p) * 1000.0,
    }, p


def by_kind(records):
    """Count and median normalised milliseconds of each kind of operation."""
    groups = {}
    for kind, dt, f, failed in records:
        if not failed:
            groups.setdefault(kind, []).append(dt * f * 1000.0)
    return {k: [len(v), round(statistics.median(v), 3)] for k, v in sorted(groups.items())}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    args = ap.parse_args(argv)

    rounds = workloads.rounds_for(args.workload, args.seconds)
    sampler = kernel.Sampler()
    sampler.start()
    try:
        setup_span, plan, mods = setup(args.workload, args.seed, rounds, sampler, args.launched)
        if args.setup_only:
            # A set-up spans two or three timer periods; samples right
            # after it (within the factor's window) steady its factor.
            for _ in range(8):
                sampler.sample()
            sampler.stop()
            a, b = setup_span
            print(json.dumps({"raw": b - a, "normalised": (b - a) * sampler.factor(a, b)}))
            return 0
        tracer = None
        if args.trace:
            tracer = Tracer(sampler.clock)
            tracer.install()
        t0 = time.perf_counter()
        runs, collections, correct = run_plan(plan, tracer, sampler.clock)
        wall = time.perf_counter() - t0
    finally:
        sampler.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = run_after(plan) and correct
    a, b = setup_span
    setup_raw, setup_s = b - a, (b - a) * sampler.factor(a, b)
    records = [(kind, b - a, sampler.factor(a, b), failed) for kind, a, b, failed in runs]
    collected = [(b - a, sampler.factor(a, b)) for a, b in collections]

    norm, p = summarise(records, collected, True)
    raw, _ = summarise(records, collected, False)
    attempted = len(records)
    failed = sum(1 for r in records if r[3])
    info = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "tail_percentile": p, "wall_s": wall,
        "raw": dict(raw, setup_s=setup_raw),
        "normalised": dict(norm, setup_s=setup_s),
        "gc_s": sum(dt * f for dt, f in collected),
        "mean_speed_factor": statistics.mean(r[2] for r in records),
        "kernel_samples": len(sampler.kernels),
        "kernel_median_ms": statistics.median(sampler.kernels) * 1000.0,
        "by_kind": by_kind(records),
    }
    if tracer:
        metrics = tracer.metrics([r[2] for r in records])
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-%d.jsonl" % (args.workload, args.seed))
        tracer.write(path)
        info["trace_file"] = os.path.relpath(path)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": norm["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": norm["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": norm["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
