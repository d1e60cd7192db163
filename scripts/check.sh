#!/usr/bin/env bash
# Full verification sweep:
#   1. plain build + entire ctest suite (tier-1 gate),
#   2. ASan/UBSan build + entire ctest suite,
#   3. TSan build + the threaded suites (the simulated MPI runtime, the
#      shared-memory pool, the fault-tolerance machinery, and the metrics
#      registry's concurrent writers),
#   4. observability smoke: solve a toy model with --trace/--report/
#      --metrics and validate every artifact with json_check,
#   5. overhead guard: bench_obs_overhead from a -DELMO_OBS_DISABLE=ON
#      build (true no-instrumentation baseline) vs the plain build's
#      dormant instrumentation; emits BENCH_observability.json and fails
#      above +2%.  Skip with ELMO_CHECK_SKIP_BENCH=1 (other stages stay),
#   6. static analysis: scripts/lint.sh (the elmo_analyze gate, the lint
#      rules over the non-src trees, header self-containedness,
#      clang-tidy/clang-format when available),
#   7. candidate-engine perf gate: scripts/bench.sh --compare against the
#      committed BENCH_candidates.json — fails when any scenario's
#      engine-vs-reference speedup drops >10% relative or the yeast-width
#      pretest speedup falls under 2x.  Skip with ELMO_CHECK_SKIP_BENCH=1,
#   8. analyzer artifact gate: the CMake-built elmo_analyze re-runs the
#      full pass set (through the communication-protocol and typestate
#      passes) over the tree against the committed baseline, and its
#      machine-readable JSON report is validated with json_check (the
#      same tool that guards the observability artifacts),
#   9. memory-capped spill smoke (scripts/mem_smoke.sh): solve ecoli
#      unconstrained to learn its ledger peak and un-spillable matrix
#      floor, then re-solve with --mem-limit barely above the floor (under
#      a ulimit -v backstop) and require a clean exit, at least one spill
#      block in report.json, no ledger-peak inflation over the
#      unconstrained run, and a bit-identical EFM set; then the
#      retry-ladder smoke (scripts/retry_smoke.sh): a combined ecoli solve
#      under a per-rank budget at 3/4 of its unbudgeted peak must re-split
#      or retry, exit cleanly and write a byte-identical EFM set.
#
# Usage: scripts/check.sh [-jN]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:--j$(nproc)}"

run() { echo "+ $*" >&2; "$@"; }

echo "== 1/9 plain build =="
run cmake -B build -S . >/dev/null
run cmake --build build "${JOBS}"
(cd build && run ctest --output-on-failure)

echo "== 2/9 address+undefined sanitizers =="
run cmake -B build-asan -S . -DELMO_SANITIZE=address,undefined >/dev/null
run cmake --build build-asan "${JOBS}"
(cd build-asan && run ctest --output-on-failure)

echo "== 3/9 thread sanitizer (threaded suites) =="
run cmake -B build-tsan -S . -DELMO_SANITIZE=thread >/dev/null
run cmake --build build-tsan "${JOBS}" --target \
    test_mpsim test_parallel test_fault_tolerance test_obs test_combined_solver \
    test_hybrid
(cd build-tsan && run ctest --output-on-failure \
    -R '^(test_mpsim|test_parallel|test_fault_tolerance|test_obs|test_combined_solver|test_hybrid)$')

echo "== 4/9 observability smoke =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
run ./build/examples/elmo_cli --builtin toy --algorithm combined --ranks 2 \
    --partition r6r,r8r --audit \
    --trace "${SMOKE_DIR}/trace.json" \
    --metrics "${SMOKE_DIR}/metrics.json" \
    --report "${SMOKE_DIR}/report.json" \
    --heartbeat "${SMOKE_DIR}/heartbeat.jsonl" \
    -o "${SMOKE_DIR}/modes.csv"
run ./build/examples/json_check "${SMOKE_DIR}/trace.json" \
    --require traceEvents
run ./build/examples/json_check "${SMOKE_DIR}/metrics.json" \
    --require counters.solver.pairs_probed \
    --require histograms.solver.iteration_pairs
run ./build/examples/json_check "${SMOKE_DIR}/report.json" \
    --require totals.pairs_probed --require subsets --require num_efms
tail -n 1 "${SMOKE_DIR}/heartbeat.jsonl" > "${SMOKE_DIR}/heartbeat.last.json"
run ./build/examples/json_check "${SMOKE_DIR}/heartbeat.last.json" \
    --require done

echo "== 5/9 observability overhead guard =="
if [[ "${ELMO_CHECK_SKIP_BENCH:-0}" != "1" ]]; then
  run cmake -B build-obsoff -S . -DELMO_OBS_DISABLE=ON >/dev/null
  run cmake --build build-obsoff "${JOBS}" --target bench_obs_overhead
  run ./build-obsoff/bench/bench_obs_overhead --reps 3 \
      --json "${SMOKE_DIR}/BENCH_observability.baseline.json"
  run ./build/bench/bench_obs_overhead --reps 3 \
      --baseline "${SMOKE_DIR}/BENCH_observability.baseline.json" \
      --max-overhead-pct 2 --json BENCH_observability.json
else
  echo "   (skipped: ELMO_CHECK_SKIP_BENCH=1)"
fi

echo "== 6/9 static analysis =="
run scripts/lint.sh

echo "== 7/9 candidate-engine perf gate =="
if [[ "${ELMO_CHECK_SKIP_BENCH:-0}" != "1" ]]; then
  # Fresh record lands in the smoke dir; the committed baseline is only read.
  run env BENCH_OUT="${SMOKE_DIR}/BENCH_candidates.json" \
      scripts/bench.sh --compare BENCH_candidates.json
else
  echo "   (skipped: ELMO_CHECK_SKIP_BENCH=1)"
fi

echo "== 8/9 analyzer artifact gate =="
run cmake --build build "${JOBS}" --target elmo_analyze
run ./build/tools/elmo_analyze --root=. \
    --baseline=tools/analyze_baseline.txt \
    --json="${SMOKE_DIR}/analyze.json" \
    --dot="${SMOKE_DIR}/modules.dot"
run ./build/examples/json_check "${SMOKE_DIR}/analyze.json" \
    --require summary.total --require summary.active \
    --require summary.baselined

echo "== 9/9 memory-capped spill and retry-ladder smoke =="
run scripts/mem_smoke.sh ./build/examples/elmo_cli
run scripts/retry_smoke.sh ./build/examples/elmo_cli

echo "all checks passed"
