#!/usr/bin/env python3
"""ppbench: build ppref from this checkout and run one benchmark workload.

Run from the root of a checkout:

    python3 ppbench/run.py --workload hot_hits --seed 1 --seconds 20 --trace 0

Workloads: hot_hits, cold_exact, analytics_mix, ppd_cq. --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer metrics. The build goes to
$CARGO_TARGET_DIR/ppbench (default .bench_build/ppbench); run state, spans
and stamped result records go to ppbench-run beside it. The last line of
standard output is the result as one JSON object; build output goes to
standard error. Exits non-zero when the build fails, an answer is wrong or
a request fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hot_hits", "cold_exact", "analytics_mix", "ppd_cq")
# The whole run, build excluded, must end well within 180 s.
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(build_dir):
    """Configures (once) and builds ppbench and ppref_served."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "ppbench", "ppref_served"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_sha():
    """SHA-256 over the sources the benchmark builds (src, tools, build files)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files.extend(os.path.join(dirpath, name) for name in sorted(filenames))
    for path in files:
        if os.path.isfile(path) and "__pycache__" not in path:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip() or "none"
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong-oracle", action="store_true",
                        help="self-test: corrupt one oracle value by one bit")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("ppbench: run from the root of a ppref checkout "
              "(no src/CMakeLists.txt here)", file=sys.stderr)
        return 2
    build_dir = os.path.join(build_root(), "ppbench")
    # Compilers and the benchmark keep their temporary files in the checkout.
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"ppbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [
        os.path.join(build_dir, "ppbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--served", os.path.join(build_dir, "ppref", "tools", "ppref_served"),
        "--dir", os.path.join(build_root(), "ppbench-run"),
        "--git-sha", git_sha(), "--source-sha", source_sha(),
    ]
    if args.plant_wrong_oracle:
        command.append("--plant-wrong-oracle")
    sys.stdout.flush()
    # A session of its own, so a timeout takes the daemon down with it.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("ppbench: run exceeded its time limit", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
