#!/usr/bin/env bash
# Sanitizer gate, four stages:
#   1. ASan+UBSan build of the library, tests, and benches; run the full
#      tier-1 test suite under it (including the net protocol fuzz tests,
#      where ASan turns any codec over-read into a hard failure).
#   2. TSan build (thread sanitizer is incompatible with ASan, so it is a
#      separate tree); run the concurrent serve-layer, obs, net, circuit,
#      resilience, hard-tier, sampling and PPD evaluator suites (`Serve*` /
#      `Obs*` / `Net*` / `Circuit*` / `Resil*` / `Hard*` / `MonteCarlo*` /
#      `Approx*`, the last three covering the block-parallel round loop,
#      shared world pools, and the PPD world sampler on several threads;
#      `Evaluator*` / `UcqEvaluator*` / `Reduction*`, covering the parallel
#      evaluator's `SessionProb` over borrowed reductions and the
#      server-routed CQ and UCQ paths)
#      — the tests that exercise cross-thread synchronization
#      directly (batch fan-out, sharded caches — including the
#      structure-keyed circuit cache behind concurrent sweeps — the metric
#      shard merge, the trace ring, the daemon's IO-thread/worker handoff
#      over adopted socketpairs, the chaos proxy's epoll loop, and the
#      resilient client's hedge threads). The fork/exec `ResilE2e*` tests
#      are not built in the TSan trees, so the `^Resil` regex only reaches
#      the TSan-clean resil_test suites.
#   3. TSan + fault-injection build (PPREF_FAULT_INJECTION=ON compiles the
#      chaos hooks into the hot paths); re-run the same suites, which now
#      include the chaos tests (miss storms, slow plans, mid-DP stops).
#   4. Store crash-recovery under ASan: the `Store*` suites plus the
#      fork-based `CrashStore*` kill-9 tests (fork is TSan-hostile, so
#      these run here and are excluded from the TSan regexes by name).
#   5. Daemon smoke: start the real ppref_served on an ephemeral port (from
#      the ASan tree, so the daemon itself runs sanitized), health-check +
#      binary query + JSON query + HTTP /sweep (a circuit-backed
#      param-sweep, each point verified bit-identical) + HTTP /hard and
#      /consensus (one hard-tier adaptive estimate and one consensus top-k,
#      each replayed byte-equal) + the same sweep, hard and consensus
#      queries over the binary protocol (each bit-identical to its HTTP
#      answer) + /metrics via ppref_net_smoke, then SIGTERM and require a
#      graceful drain with exit 0.
#   6. Warm-restart smoke: the same daemon started with --store-dir,
#      queried, SIGTERMed (the drain flushes the store), then restarted on
#      the same directory and re-queried with --expect-store-hits — the
#      answers must come off disk, bit-identical.
#   7. Chaos-proxy smoke (ASan binaries): ppref_net_smoke through a
#      fault-free ppref_chaos_proxy must pass bit-identically (the proxy is
#      transparent), and through a 100%-accept-reset proxy must fail (the
#      faults really reach the wire); the proxy must drain on SIGTERM with
#      exit 0.
#   8. Supervisor kill-9 smoke (ASan binaries): ppref_supervise runs
#      ppref_served --store-dir on a stable socket; after a SIGKILL of the
#      daemon the restarted incarnation must answer the same queries with
#      --expect-store-hits (warm off disk, not recomputed), and the
#      supervisor must forward SIGTERM and exit 0.
# Any sanitizer report aborts the run (-fno-sanitize-recover=all), so a
# green ctest means clean. Each stage prints its wall-clock on completion.
#
# Usage: scripts/check.sh [asan-build-dir] [tsan-build-dir] [chaos-build-dir]
#        (defaults: build-sanitize, build-tsan, build-chaos)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-sanitize}"
TSAN_DIR="${2:-build-tsan}"
CHAOS_DIR="${3:-build-chaos}"

STAGE_START=$SECONDS
stage_done() {  # stage_done NAME — print the stage's wall-clock and reset
  echo "== check.sh: stage '$1' took $((SECONDS - STAGE_START))s =="
  STAGE_START=$SECONDS
}

cmake -B "$BUILD_DIR" -S . -DPPREF_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
stage_done "asan+ubsan full suite"

cmake -B "$TSAN_DIR" -S . -DPPREF_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPPREF_BUILD_BENCHMARKS=OFF -DPPREF_BUILD_EXAMPLES=OFF
cmake --build "$TSAN_DIR" -j "$(nproc)" --target serve_test --target obs_test \
  --target net_test --target circuit_test --target store_test \
  --target resil_test --target hard_test --target infer_top_prob_test \
  --target ppd_test
ctest --test-dir "$TSAN_DIR" --output-on-failure -R '^Serve|^Obs|^Net|^Circuit|^Store|^Resil|^Hard|^MonteCarlo|^Approx|^Evaluator|^UcqEvaluator|^Reduction'
stage_done "tsan serve+obs+net+circuit+store+resil+hard+montecarlo+approx+ppd-evaluators"

cmake -B "$CHAOS_DIR" -S . -DPPREF_SANITIZE=thread -DPPREF_FAULT_INJECTION=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPPREF_BUILD_BENCHMARKS=OFF -DPPREF_BUILD_EXAMPLES=OFF
cmake --build "$CHAOS_DIR" -j "$(nproc)" --target serve_test --target obs_test \
  --target net_test --target circuit_test --target store_test \
  --target resil_test --target hard_test --target infer_top_prob_test \
  --target ppd_test
ctest --test-dir "$CHAOS_DIR" --output-on-failure -R '^Serve|^Obs|^Net|^Circuit|^Store|^Resil|^Hard|^MonteCarlo|^Approx|^Evaluator|^UcqEvaluator|^Reduction'
stage_done "tsan+chaos serve+obs+net+circuit+store+resil+hard+montecarlo+approx+ppd-evaluators"

# Store crash-recovery (fork-based kill-9 tests only run un-TSan'd) plus
# the hard-tier suites, whose seeded parallel sampling ASan checks for
# over-reads in the block-reduction buffers.
ctest --test-dir "$BUILD_DIR" --output-on-failure -R '^Store|^CrashStore|^Hard'
stage_done "asan store crash-recovery + hard tier"

# Daemon smoke: end-to-end over real TCP with the ASan-built binaries.
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"
"$BUILD_DIR/tools/ppref_served" --port 0 --port-file "$PORT_FILE" &
SERVED_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE" ]] && break
  sleep 0.05
done
[[ -s "$PORT_FILE" ]] || { echo "ppref_served never wrote its port"; kill "$SERVED_PID"; exit 1; }
"$BUILD_DIR/tools/ppref_net_smoke" --port "$(cat "$PORT_FILE")"
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"  # set -e: a non-zero (ungraceful) exit fails the gate
rm -f "$PORT_FILE"
stage_done "daemon smoke (start, query, drain)"

# Warm-restart smoke: populate a store, drain, restart on the same
# directory, and require the answers to come off disk bit-identically.
STORE_DIR="$(mktemp -d)"
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"
"$BUILD_DIR/tools/ppref_served" --port 0 --port-file "$PORT_FILE" \
  --store-dir "$STORE_DIR" &
SERVED_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE" ]] && break
  sleep 0.05
done
[[ -s "$PORT_FILE" ]] || { echo "ppref_served (store) never wrote its port"; kill "$SERVED_PID"; exit 1; }
"$BUILD_DIR/tools/ppref_net_smoke" --port "$(cat "$PORT_FILE")"
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"  # graceful drain also flushes the store

rm -f "$PORT_FILE"
"$BUILD_DIR/tools/ppref_served" --port 0 --port-file "$PORT_FILE" \
  --store-dir "$STORE_DIR" &
SERVED_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE" ]] && break
  sleep 0.05
done
[[ -s "$PORT_FILE" ]] || { echo "restarted ppref_served never wrote its port"; kill "$SERVED_PID"; exit 1; }
"$BUILD_DIR/tools/ppref_net_smoke" --port "$(cat "$PORT_FILE")" --expect-store-hits
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
rm -f "$PORT_FILE"
rm -rf "$STORE_DIR"
stage_done "daemon warm-restart smoke (store populate, drain, restart, warm hits)"

# Chaos-proxy smoke: the proxy must be transparent without faults and
# actually destructive with them.
PORT_FILE="$(mktemp)"
PROXY_PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE" "$PROXY_PORT_FILE"
"$BUILD_DIR/tools/ppref_served" --port 0 --port-file "$PORT_FILE" &
SERVED_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE" ]] && break
  sleep 0.05
done
[[ -s "$PORT_FILE" ]] || { echo "ppref_served never wrote its port"; kill "$SERVED_PID"; exit 1; }
"$BUILD_DIR/tools/ppref_chaos_proxy" --upstream-port "$(cat "$PORT_FILE")" \
  --port 0 --port-file "$PROXY_PORT_FILE" &
PROXY_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$PROXY_PORT_FILE" ]] && break
  sleep 0.05
done
[[ -s "$PROXY_PORT_FILE" ]] || { echo "ppref_chaos_proxy never wrote its port"; kill "$PROXY_PID" "$SERVED_PID"; exit 1; }
"$BUILD_DIR/tools/ppref_net_smoke" --port "$(cat "$PROXY_PORT_FILE")"
kill -TERM "$PROXY_PID"
wait "$PROXY_PID"  # clean drain required

rm -f "$PROXY_PORT_FILE"
"$BUILD_DIR/tools/ppref_chaos_proxy" --upstream-port "$(cat "$PORT_FILE")" \
  --port 0 --port-file "$PROXY_PORT_FILE" --seed 7 --accept-reset 1000 &
PROXY_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$PROXY_PORT_FILE" ]] && break
  sleep 0.05
done
if "$BUILD_DIR/tools/ppref_net_smoke" --port "$(cat "$PROXY_PORT_FILE")" 2>/dev/null; then
  echo "smoke through a 100%-reset proxy should have failed"
  kill "$PROXY_PID" "$SERVED_PID"
  exit 1
fi
kill -TERM "$PROXY_PID"
wait "$PROXY_PID"
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
rm -f "$PORT_FILE" "$PROXY_PORT_FILE"
stage_done "chaos-proxy smoke (transparent pass-through, real faults, clean drain)"

# Supervisor kill-9 smoke: the daemon dies hard, the supervisor restarts
# it on the same socket, and the answers come back warm off the store.
STORE_DIR="$(mktemp -d)"
PORT_FILE="$(mktemp)"
PID_FILE="$(mktemp)"
rm -f "$PORT_FILE" "$PID_FILE"
"$BUILD_DIR/tools/ppref_supervise" --daemon "$BUILD_DIR/tools/ppref_served" \
  --port-file "$PORT_FILE" --pid-file "$PID_FILE" \
  --health-interval-ms 100 --backoff-base-ms 50 \
  -- --store-dir "$STORE_DIR" &
SUPERVISE_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE" && -s "$PID_FILE" ]] && break
  sleep 0.05
done
[[ -s "$PORT_FILE" && -s "$PID_FILE" ]] || { echo "ppref_supervise never came up"; kill "$SUPERVISE_PID"; exit 1; }
PORT="$(cat "$PORT_FILE")"
"$BUILD_DIR/tools/ppref_net_smoke" --port "$PORT"  # populate the store
kill -9 "$(cat "$PID_FILE")"
WARM_OK=0
for _ in $(seq 1 100); do  # the restart takes a backoff beat; retry the smoke
  if "$BUILD_DIR/tools/ppref_net_smoke" --port "$PORT" --expect-store-hits 2>/dev/null; then
    WARM_OK=1
    break
  fi
  sleep 0.1
done
[[ "$WARM_OK" == 1 ]] || { echo "no warm answers after kill -9 restart"; kill "$SUPERVISE_PID"; exit 1; }
kill -TERM "$SUPERVISE_PID"
wait "$SUPERVISE_PID"  # forwards to the daemon, drains, exits 0
rm -f "$PORT_FILE" "$PID_FILE"
rm -rf "$STORE_DIR"
stage_done "supervisor kill-9 smoke (crash, restart, warm store hits)"
