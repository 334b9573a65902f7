#!/usr/bin/env bash
# Full verification sweep: a Release build plus two sanitized builds, the
# test suite under each, and the F1/F11 mediation figures as JSON.
#
#   ci/run_checks.sh [--quick | --faults]
#
# --quick restricts the sanitizer ctest runs to the monitor + concurrency
# tests (the multithreaded surface, including the striped MonitorStats
# counters, the mediated StatsService tree, the subscription channels, the
# cooperative-cancellation paths, the fault-injection suites, and the
# differential-fuzz suites) plus the policy round-trip and reload tests;
# the default runs everything everywhere.
#
# --faults runs only the randomized fault-injection sweep: the fault suites
# (Failpoint|FaultService|AuditResilience|PolicyCrash|NdjsonDiskFull|
# AuditFanOut|ShardClearRace|Supervisor|Quarantine) plus the DiffFuzz
# differential oracle under ASan+UBSan and TSan with a randomized
# XSEC_FAULT_SEED. The seed is printed so a failing sweep replays exactly:
# XSEC_FAULT_SEED=<seed> ci/run_checks.sh --faults.
#
# Outputs:
#   build-release/   optimized build, full ctest
#   build-tsan/      -fsanitize=thread, ctest (races fail the run)
#   build-asan/      -fsanitize=address,undefined, ctest
#   BENCH_f1.<i>.json  bench_f1_mediation results, i = 1..3, one file per
#                    process (per-call overhead; the
#                    Cached vs Cached_NoStats delta is the stats budget,
#                    gated against ci/bench_f1_baseline.json by
#                    ci/check_bench_f1.py — >10% ratio regression fails.
#                    Collected with instructions-retired perf counters when
#                    the benchmark library + kernel support them; the gate
#                    prefers that metric and falls back to median cpu_time;
#                    Cached_NoStats now counts no decision at all, so the
#                    ratio reads higher than the committed baseline even
#                    though the stats-on check got cheaper)
#                    The same gate holds Invoke by path within 3.5x of a
#                    capability call (BM_InvokePath / BM_CapabilityCall).
#   BENCH_f9.json    bench_f9_traversal at depth 8 (ci/check_bench_f9.py
#                    requires cached traversal checks within 1.2x of no
#                    traversal checks: a warm path is one cache probe)
#   BENCH_f11.json   bench_f11_parallel results from the release build
#   BENCH_f12.<i>.json  bench_f12_subscription results, one file per
#                    process (publish fan-out cost +
#                    multi-sink audit drain; ci/check_bench_f12.py requires
#                    the publisher ~flat 1->64 subscribers, a 2-sink drain
#                    >= 1.5x one sink, and zero order violations)
#   BENCH_f16.json   bench_f16_shard results (sharded stamp domains;
#                    ci/check_bench_f16.py requires zero cross-shard stale
#                    evictions, a live same-shard control, and effective
#                    ACL interning)
#   BENCH_f17.<i>.json  bench_f17_supervisor results, one file per process
#                    (supervised degradation;
#                    ci/check_bench_f17.py requires invokes beside a
#                    quarantined peer within 10% of baseline, a real audited
#                    + health-visible trip, and the mediated release round
#                    trip to restore service)
#
# The F1, F12 and F17 gates judge same-run timing ratios, which flip with
# host noise when read from one run. Each of those benchmarks therefore runs
# in BENCH_PROCESSES (3) separate processes, and a gate judges a timing
# clause on the per-benchmark minimum, across processes, of each process's
# median cpu_time.
#
# Builds stop the sweep at once. Every test run, benchmark and gate after
# them runs regardless of the ones before: a failure is recorded, and the
# script exits non-zero at the end, naming every check that failed.

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc)"
QUICK=0
FAULTS=0
[[ "${1:-}" == "--quick" ]] && QUICK=1
[[ "${1:-}" == "--faults" ]] && FAULTS=1

# DiffFuzz (tests/diff_fuzz_test.cc) rides in the fault sweep: it arms the
# same failpoints and must never see the Check pipeline diverge from the
# interpreted oracle.
FAULT_RE='Failpoint|FaultService|AuditResilience|PolicyCrash|NdjsonDiskFull|DiffFuzz|ShardClearRace|AuditFanOut|Supervisor|Quarantine'

# Randomized but replayable in every mode: the differential fuzzer and the
# failpoint sweeps read XSEC_FAULT_SEED from the environment and print it in
# their own output (SCOPED_TRACE), so any failure replays exactly with
# XSEC_FAULT_SEED=<seed> ci/run_checks.sh [mode].
: "${XSEC_FAULT_SEED:=$RANDOM$RANDOM}"
export XSEC_FAULT_SEED
echo "== Randomized seed: XSEC_FAULT_SEED=$XSEC_FAULT_SEED =="

FAILED=()
# Runs one named check; a failure is recorded and the sweep goes on.
check() {
  local name="$1"
  shift
  if ! "$@"; then
    echo "!! check failed: $name"
    FAILED+=("$name")
  fi
}

# Exits non-zero naming every failed check; else prints $1.
finish() {
  if (( ${#FAILED[@]} > 0 )); then
    echo "FAILED checks: ${FAILED[*]} (XSEC_FAULT_SEED=$XSEC_FAULT_SEED)"
    exit 1
  fi
  echo "$1"
}

# ctest in directory $1, with any further arguments.
ctest_in() {
  local dir="$1"
  shift
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "$@")
}

run_ctest() {
  local dir="$1"
  if [[ "$QUICK" == 1 ]]; then
    ctest_in "$dir" \
        -R "MonitorConcurrency|DecisionCache|ReferenceMonitor|AuditLog|NdjsonRotation|MonitorStats|StatsService|StatsSnapshot|StatsWatch|Subscription|Cancellation|PolicyIo|PolicyRoundTrip|Shard|Breaker|${FAULT_RE}"
  else
    ctest_in "$dir"
  fi
}

if [[ "$FAULTS" == 1 ]]; then
  echo "== Fault-injection sweep (XSEC_FAULT_SEED=$XSEC_FAULT_SEED) =="

  echo "== AddressSanitizer + UBSan build =="
  cmake -B build-asan -S . -DXSEC_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS"
  check "asan fault suites" ctest_in build-asan -R "$FAULT_RE"

  echo "== ThreadSanitizer build =="
  cmake -B build-tsan -S . -DXSEC_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$JOBS"
  check "tsan fault suites" ctest_in build-tsan -R "$FAULT_RE"

  finish "Fault sweep passed (seed $XSEC_FAULT_SEED)."
  exit 0
fi

echo "== Release build =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "$JOBS"
check "release ctest" ctest_in build-release

echo "== ThreadSanitizer build =="
cmake -B build-tsan -S . -DXSEC_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$JOBS"
check "tsan ctest" run_ctest build-tsan

echo "== AddressSanitizer + UBSan build =="
cmake -B build-asan -S . -DXSEC_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$JOBS"
check "asan ctest" run_ctest build-asan

BENCH_PROCESSES=3
# The file names BENCH_<figure>.1.json .. BENCH_<figure>.N.json.
bench_files() {
  local i
  for ((i = 1; i <= BENCH_PROCESSES; ++i)); do
    echo "BENCH_$1.$i.json"
  done
}

echo "== F1: per-call mediation overhead (${BENCH_PROCESSES} processes) =="
F1_RUN=(./build-release/bench/bench_f1_mediation
    --benchmark_out_format=json
    --benchmark_min_time=0.25 --benchmark_repetitions=3)
# Ask for instructions-retired counters: when the library was built with
# libpfm and the kernel permits perf_event_open, every benchmark entry gains
# an INSTRUCTIONS column and the gate below uses it (deterministic, immune
# to CPU-frequency noise). Builds without the support either ignore the flag
# with a notice or reject it outright — retry plainly in that case; the gate
# then falls back to median cpu_time.
run_f1() {
  if ! "${F1_RUN[@]}" --benchmark_out="$1" --benchmark_perf_counters=INSTRUCTIONS; then
    echo "perf counters unavailable; rerunning F1 without them"
    "${F1_RUN[@]}" --benchmark_out="$1"
  fi
}
for out in $(bench_files f1); do
  check "F1 bench ($out)" run_f1 "$out"
done

echo "== F1 regression gate (stats overhead ratio vs committed baseline) =="
check "F1 gate" python3 ci/check_bench_f1.py $(bench_files f1) ci/bench_f1_baseline.json

echo "== F9: hierarchy traversal protection at depth 8 =="
check "F9 bench" ./build-release/bench/bench_f9_traversal \
    --benchmark_filter='BM_Path(NoTraversal|TraversalCached)/8$' \
    --benchmark_out=BENCH_f9.json --benchmark_out_format=json \
    --benchmark_min_time=0.25 --benchmark_repetitions=5

echo "== F9 gate (cached traversal <= 1.2x no traversal at depth 8) =="
check "F9 gate" python3 ci/check_bench_f9.py BENCH_f9.json

echo "== F16: sharded stamp domains =="
check "F16 bench" ./build-release/bench/bench_f16_shard \
    --benchmark_out=BENCH_f16.json --benchmark_out_format=json \
    --benchmark_min_time=0.25

echo "== F16 gate (cross-shard isolation; ACL interning) =="
check "F16 gate" python3 ci/check_bench_f16.py BENCH_f16.json

echo "== F17: supervised degradation (quarantined peer containment, ${BENCH_PROCESSES} processes) =="
for out in $(bench_files f17); do
  check "F17 bench ($out)" ./build-release/bench/bench_f17_supervisor \
      --benchmark_out="$out" --benchmark_out_format=json \
      --benchmark_min_time=0.25 --benchmark_repetitions=3
done

echo "== F17 gate (peer quarantine taxes neighbors <= 10%; trip audited + visible; release restores) =="
check "F17 gate" python3 ci/check_bench_f17.py $(bench_files f17)

echo "== F11: parallel mediation throughput =="
check "F11 bench" ./build-release/bench/bench_f11_parallel \
    --benchmark_out=BENCH_f11.json --benchmark_out_format=json \
    --benchmark_min_time=0.1

echo "== F12: subscription fan-out on the publish path (${BENCH_PROCESSES} processes) =="
for out in $(bench_files f12); do
  check "F12 bench ($out)" ./build-release/bench/bench_f12_subscription \
      --benchmark_out="$out" --benchmark_out_format=json \
      --benchmark_min_time=0.1 --benchmark_repetitions=3
done

echo "== F12 gate (publisher ~flat 1->64 subs; 2-sink drain >= 1.5x; order_violations == 0) =="
check "F12 gate" python3 ci/check_bench_f12.py $(bench_files f12)

finish "All checks passed (XSEC_FAULT_SEED=$XSEC_FAULT_SEED). Figure data in BENCH_f1.<i>.json, BENCH_f9.json, BENCH_f11.json, BENCH_f12.<i>.json, BENCH_f16.json, BENCH_f17.<i>.json."
