#!/usr/bin/env bash
# Rebuilds the project and regenerates every artifact the repository
# documents: the full test log (test_output.txt) and the complete
# experiment sweep E1..E25 (bench_output.txt).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build

ctest --test-dir build -j"$(nproc)" 2>&1 | tee test_output.txt

for b in build/bench/bench_*; do
  "$b"
done 2>&1 | tee bench_output.txt
