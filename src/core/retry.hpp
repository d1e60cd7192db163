// Retry policy for divide-and-conquer subsets (Algorithm 3).
//
// Each of the 2^qsub disjoint subsets is an independent, restartable unit
// of work: when one fails transiently (an injected rank crash, a world
// abort, a corrupted payload) or persistently (memory budget, --mem-limit
// or watchdog deadline exhausted beyond the adaptive re-split depth), the
// driver re-queues it under this policy instead of killing the whole run —
// the programmatic form of what the paper did by hand on Network II
// (Table IV: subsets 1 and 3 were re-run re-split).
//
// solve_combined classifies each failure once (detail::classify_failure):
// budget, resource and deadline errors re-split the subset first while
// spare partition reactions remain; resource errors also DEGRADE the retry
// (attempt k halves the candidate tile k-1 times, turns spill on, and from
// the third attempt spills every block); those three plus world aborts,
// injected crashes and corrupted payloads are retried up to max_attempts;
// everything else, cancellation included, propagates.  The serial final
// attempt ignores the budget, the memory limit, the fault plan and the
// deadline (completing slowly beats not completing).
#pragma once

namespace elmo {

struct RetryPolicy {
  /// Total attempts per subset, including the first (1 = fail fast).
  int max_attempts = 1;

  /// The final attempt bypasses the simulated cluster entirely and solves
  /// the subset with serial Algorithm 1 — immune to injected faults and to
  /// the per-rank memory budget (the paper's "just run the survivor
  /// subsets wherever they fit" escape hatch).
  bool serial_final_attempt = false;
};

}  // namespace elmo
