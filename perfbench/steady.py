"""Steadiness check and reference figures.

    python3 perfbench/steady.py [--runs 10] [--against FILE]

Runs every workload `--runs` times at BENCHMARK.json's run_seconds, with
seeds 1, 2, ..., rotating the order of the workloads from one pass to the
next, and prints for each end-to-end
metric its median, quartiles and spread ((q3 - q1) / median, quartiles as
statistics.quantiles(n=4) gives them) next to the bound in BENCHMARK.json,
with the raw (not speed-normalised) medians beside them. `--against`
compares the medians with an earlier result file and flags any metric
that got worse by more than its bound. Results go to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed (%d):\n%s" % (workload, seed, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2][len("info "):])
    result = json.loads(lines[-1])
    return {"seed": seed, "elapsed_s": elapsed, "info": info, "result": result}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def report(runs, bench, previous):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worst = []
    for workload, rows in runs.items():
        res = [r["result"] for r in rows]
        fail_shares = sorted({r["failed"] / r["attempted"] for r in res})
        print("\n== %s: %d runs, attempted %s, failed share %s, correct %s, tail p%s, wall %.1f-%.1f s"
              % (workload, len(rows), sorted({r["attempted"] for r in res}), fail_shares,
                 all(r["correct"] for r in res), rows[0]["info"]["tail_percentile"],
                 min(r["elapsed_s"] for r in rows), max(r["elapsed_s"] for r in rows)))
        names = list(res[0]["metrics"])
        print("%-46s %12s %12s %12s %8s %6s %12s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "raw median"))
        for name in names:
            med, q1, q3, spr = spread([r["metrics"][name]["value"] for r in res])
            bound = bounds[name]["bound"]
            raw = [r["info"]["raw"].get(name) for r in rows]
            raw_med = statistics.median(raw) if None not in raw else float("nan")
            flag = "" if spr <= bound / 3 else (" <- over bound/3" if spr <= bound else " <- OVER BOUND")
            if name != "setup_s":
                worst.append((spr / bound, workload, name))
            print("%-46s %12.6g %12.6g %12.6g %8.4f %6s %12.6g%s" % (
                name, med, q1, q3, spr, bound, raw_med, flag))
            if previous and workload in previous:
                old = statistics.median(r["result"]["metrics"][name]["value"] for r in previous[workload])
                worse = (med - old) / old if bounds[name]["better"] == "lower" else (old - med) / old
                print("%-46s %12.6g -> %.6g  (worse by %+.4f of bound %s)%s" % (
                    "   vs previous", old, med, worse, bound, "  <- REGRESSION" if worse > bound else ""))
    if worst:
        worst.sort(reverse=True)
        print("\nlargest spread/bound: %.3f (%s %s)" % worst[0])


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--against", default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    previous = None
    if args.against:
        with open(args.against) as fh:
            previous = json.load(fh)["runs"]

    runs = {w: [] for w in names}
    for i in range(args.runs):
        order = names[i % len(names):] + names[:i % len(names)]
        for w in order:
            r = run_once(w, i + 1, seconds)
            runs[w].append(r)
            m = r["result"]["metrics"]
            print("run %2d %-10s seed %3d %6.1fs  %s" % (
                i, w, i + 1, r["elapsed_s"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in m.items())), flush=True)

    report(runs, bench, previous)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "steady-%s.json" % time.strftime("%Y%m%dT%H%M%S"))
    with open(path, "w") as fh:
        json.dump({"seconds": seconds, "runs": runs}, fh, indent=1)
    print("\nwrote " + os.path.relpath(path, ROOT))


if __name__ == "__main__":
    main(sys.argv[1:])
