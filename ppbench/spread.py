#!/usr/bin/env python3
"""Run-to-run spread of the ppbench end-to-end metrics.

Run from the root of a checkout:

    python3 ppbench/spread.py --workloads hot_hits cold_exact --runs 10

Runs ppbench/run.py once per seed (seeds 1..runs, or --first-seed on) for
each workload, and prints for every end-to-end metric of BENCHMARK.json its
median and its spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. A spread above a third
of the metric's bound is flagged (setup_s is exempt: only its median is
compared between runs of two commits). Exits non-zero when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout[-2000:] + result.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {result.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    flagged = 0
    for workload in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run(workload, seed, args.seconds)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs)")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            median = statistics.median(values[name])
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median if median else float("inf")
            limit = metric["bound"] / 3
            flag = ""
            if name != "setup_s" and spread > limit:
                flag = "  <-- above bound/3"
                flagged += 1
            print(f"  {name:24s} median {median:14.4f}  spread {spread:7.4f}"
                  f"  (bound {metric['bound']}){flag}")
            print("    runs: " + " ".join(f"{v:.6g}" for v in values[name]))
        sys.stdout.flush()
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
