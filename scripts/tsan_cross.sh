#!/usr/bin/env bash
# TSan-vs-static cross-check: run the concurrency-heavy test subset under
# ThreadSanitizer, then feed the captured report to the static shared-state
# pass (`elmo_analyze --pass=shared --tsan-log=...`).  Every runtime race
# must land within a few lines of a static shared-mutation finding or an
# `analyze:shared-ok` / `lint:allow(shared-mutation)` annotation — a race
# the static model never saw becomes a `shared:shared-unseen` finding and
# fails the script.  Races themselves also fail (via ctest), so the script
# passes only on a tree that is BOTH race-free at runtime and fully
# modelled statically.
#
# Usage: scripts/tsan_cross.sh [-jN]        exit 0 = clean
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:--j$(nproc)}"
LOG="${TSAN_CROSS_LOG:-build-tsan/tsan_cross.log}"

run() { echo "+ $*" >&2; "$@"; }

echo "== 1/3 build TSan preset =="
# Fail loudly, not silently, when this environment cannot produce the
# TSan build: a cross-check that quietly skipped its runtime half would
# read as "no races" to CI.
if ! run cmake --preset tsan >/dev/null; then
  echo "tsan_cross: the 'tsan' CMake preset failed to configure —" \
       "ThreadSanitizer builds are unavailable in this environment;" \
       "the runtime half of the cross-check cannot run" >&2
  exit 2
fi
if ! run cmake --build --preset tsan "$JOBS" \
    --target test_mpsim test_parallel test_fault_tolerance \
    test_combined_solver test_hybrid; then
  echo "tsan_cross: the TSan preset build failed — cannot produce the" \
       "instrumented test binaries; fix the build before trusting the" \
       "static/runtime race cross-check" >&2
  exit 2
fi

echo "== 2/3 ctest (concurrency subset) under ThreadSanitizer =="
mkdir -p "$(dirname "$LOG")"
# -V so TSan reports (stderr of the test binaries) land in the log even
# when ctest considers the test passed; races still fail ctest via the
# sanitizer's nonzero exit code, but we finish the cross-check first.
ctest_status=0
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=0}" \
    ctest --preset tsan -V >"$LOG" 2>&1 || ctest_status=$?
races=$(grep -c "WARNING: ThreadSanitizer:" "$LOG" || true)
echo "TSan reports in log: $races"

echo "== 3/3 static shared-state pass cross-checked against the log =="
mkdir -p build-lint
run g++ -std=c++17 -O1 -Wall -Wextra -I tools -o build-lint/elmo_analyze \
    tools/analyze/*.cpp
run ./build-lint/elmo_analyze --pass=shared --root=. \
    --baseline=tools/analyze_baseline.txt --tsan-log="$LOG"

if [ "$ctest_status" -ne 0 ]; then
  echo "tsan_cross: ctest failed under TSan (status $ctest_status)" >&2
  exit "$ctest_status"
fi
echo "tsan_cross OK"
