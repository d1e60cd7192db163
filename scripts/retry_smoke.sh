#!/usr/bin/env bash
# Retry-ladder smoke: prove Algorithm 3's recovery end-to-end through the
# real CLI.
#
#   1. Solve ecoli with the combined driver on 2 ranks, unbudgeted, and read
#      the largest per-rank memory peak from report.json
#      (subsets[].ranks[].memory_peak_bytes).
#   2. Re-solve with --memory-budget at 3/4 of that peak, so the biggest
#      subset busts it, with the whole ladder switched on: re-splits,
#      retries, a serial last attempt and a subset deadline.
#   3. Require: clean exit, at least one re-split or retry in report.json,
#      and a byte-identical EFM CSV.
#
# Usage: scripts/retry_smoke.sh [path/to/elmo_cli]
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${1:-./build/examples/elmo_cli}"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT

run() { echo "+ $*" >&2; "$@"; }

COMMON=(--builtin ecoli --algorithm combined --ranks 2)

run "${CLI}" "${COMMON[@]}" \
    --report "${SMOKE_DIR}/retry_base.json" -o "${SMOKE_DIR}/retry_base.csv"
BUDGET="$(python3 - "${SMOKE_DIR}/retry_base.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
peak = max(rank["memory_peak_bytes"]
           for subset in report["subsets"] for rank in subset["ranks"])
print(peak * 3 // 4)
PY
)"

run "${CLI}" "${COMMON[@]}" --memory-budget "${BUDGET}" \
    --max-extra-splits 2 --retries 2 --retry-serial --subset-deadline 600 \
    --report "${SMOKE_DIR}/retry_budget.json" \
    -o "${SMOKE_DIR}/retry_budget.csv"

python3 - "${SMOKE_DIR}/retry_budget.json" "${BUDGET}" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
retries = report["totals"]["total_retries"]
splits = sum(subset["extra_splits"] for subset in report["subsets"])
print(f"   budget {sys.argv[2]} B: {len(report['subsets'])} subsets,"
      f" {splits} extra splits, {retries} retries")
assert splits + retries >= 1, "the budget never bound: no re-split or retry"
PY

run cmp "${SMOKE_DIR}/retry_base.csv" "${SMOKE_DIR}/retry_budget.csv"
echo "retry smoke passed"
