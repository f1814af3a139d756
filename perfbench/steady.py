#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread on one workload.

Runs the benchmark serially, once per seed, and prints for every
end-to-end metric its median, its quartiles as
statistics.quantiles(values, n=4) gives them, and the spread (Q3 - Q1)
as a share of the median next to the metric's bound in BENCHMARK.json.
Run it from the repository root:

    python3 perfbench/steady.py --workload sim-copy --runs 10 --first-seed 1

--out FILE appends each run's result line to FILE as JSON, so two sets
of runs can be compared afterwards with --compare FILE_A FILE_B, which
prints how far the second set's median moved from the first's.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_bounds():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return bench, {m["name"]: m for m in bench["end_to_end"]}


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return result


def summarise(results, bounds):
    print(f"{'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, m in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / statistics.median(values)
        print(f"{name:<12} {statistics.median(values):12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {m['bound']:6.3f}")


def compare(path_a, path_b, bounds):
    def load(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    a, b = load(path_a), load(path_b)
    print(f"{'metric':<12} {'median A':>12} {'median B':>12} {'B vs A':>8} {'bound':>6}")
    for name, m in bounds.items():
        ma = statistics.median(r["metrics"][name]["value"] for r in a)
        mb = statistics.median(r["metrics"][name]["value"] for r in b)
        print(f"{name:<12} {ma:12.6g} {mb:12.6g} {mb / ma - 1:+8.4f} {m['bound']:6.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args()
    bench, bounds = load_bounds()
    if args.compare:
        compare(*args.compare, bounds)
        return
    if not args.workload:
        ap.error("--workload is required")
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        results.append(run_once(bench, args.workload, seed))
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(results[-1]) + "\n")
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(results[-1]["metrics"].items())), flush=True)
    summarise(results, bounds)


if __name__ == "__main__":
    main()
