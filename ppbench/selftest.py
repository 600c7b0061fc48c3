#!/usr/bin/env python3
"""Self-test of the ppbench benchmark.

Run from the root of a checkout:

    python3 ppbench/selftest.py

Checks, for every workload of BENCHMARK.json:
  1. a run with a one-bit-wrong oracle value planted reports the failure:
     it exits non-zero and its result says correct=false, failed >= 1;
  2. an untraced run prints exactly the end-to-end metrics, with units;
  3. the traced run prints exactly the per-layer metrics, with units, and
     its self-time table covers the traced request latency;
and that the command fails without printing a result in a directory that
holds only BENCHMARK.json and the benchmark's own files. Exits non-zero on
the first check that does not hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = "2"


def run(workload, trace, *extra, cwd=None):
    result = subprocess.run(
        [sys.executable, os.path.join(cwd or os.getcwd(), "ppbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", SECONDS,
         "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=cwd)
    lines = result.stdout.strip().splitlines()
    return result.returncode, lines


def last_json(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    sys.stdout.flush()
    if not condition:
        raise SystemExit(1)


def check_units(result, specs, label):
    names = {spec["name"]: spec["unit"] for spec in specs}
    metrics = result["metrics"] if result else {}
    expect(set(metrics) == set(names),
           f"{label}: metrics are exactly {sorted(names)}"
           + ("" if set(metrics) == set(names)
              else f" (missing {sorted(set(names) - set(metrics))},"
                   f" extra {sorted(set(metrics) - set(names))})"))
    expect(all(metrics[n]["unit"] == u and isinstance(metrics[n]["value"], (int, float))
               for n, u in names.items()),
           f"{label}: every metric has a numeric value and its unit")


def main():
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    for workload in (w["name"] for w in bench["workloads"]):
        code, lines = run(workload, 0, "--plant-wrong-oracle")
        result = last_json(lines)
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               f"{workload}: a planted one-bit-wrong oracle value fails the run")

        code, lines = run(workload, 0)
        result = last_json(lines)
        expect(code == 0 and result is not None and result["correct"]
               and result["failed"] == 0 and result["attempted"] >= 1,
               f"{workload}: untraced run is correct with no failures")
        check_units(result, bench["end_to_end"], f"{workload} --trace 0")
        expect(any(line.strip().startswith("error_rate") for line in lines),
               f"{workload}: untraced run prints error_rate")

        code, lines = run(workload, 1)
        result = last_json(lines)
        expect(code == 0 and result is not None and result["correct"],
               f"{workload}: traced run is correct")
        check_units(result, bench["per_layer"], f"{workload} --trace 1")
        expect(any("layer self times sum to" in line and line.endswith(": ok")
                   for line in lines),
               f"{workload}: blocking-path self times add up to the traced "
               "request latency")

    bare = os.path.join(os.getcwd(), ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    workload = bench["workloads"][0]["name"]
    code, lines = run(workload, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and last_json(lines) is None,
           "without the ppref sources the command fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
