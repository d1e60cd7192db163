// Counters collected by the Nullspace Algorithm.
//
// `pairs_probed` is the paper's "# candidate modes": every positive/negative
// column pair examined in GenerateEFMCands counts, including pairs rejected
// by the cheap support-cardinality pre-test.  (Tables II-IV report this
// number, and §IV.A observes computation time is proportional to it.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "support/timer.hpp"

namespace elmo {

struct IterationStats {
  std::size_t row = 0;                 // reduced row index processed
  std::uint64_t positives = 0;         // columns with positive entry
  std::uint64_t negatives = 0;         // columns with negative entry
  std::uint64_t pairs_probed = 0;      // = positives * negatives
  std::uint64_t pretest_survivors = 0; // pairs past the cardinality test
  std::uint64_t duplicates_removed = 0;
  std::uint64_t rank_tests = 0;
  std::uint64_t accepted = 0;
  std::uint64_t columns_after = 0;     // matrix width entering next iter
  /// Candidate bytes written out-of-core this iteration (0 when the
  /// iteration ran fully in memory).
  std::uint64_t spilled_bytes = 0;
  /// Sparse rank-test engine counters (nullspace/sparse_rank.hpp), drained
  /// from each driver's engine once per iteration.
  std::uint64_t rank_warmstart_reuses = 0;  // tests reusing the warm cache
  std::uint64_t rank_gathered_nnz = 0;      // entries gathered in total

  /// Sum another worker's counters over the same row into this one (the
  /// SMP thread merge).  Row, side sizes and columns_after stay as they are.
  void add_counters(const IterationStats& other) {
    pairs_probed += other.pairs_probed;
    pretest_survivors += other.pretest_survivors;
    duplicates_removed += other.duplicates_removed;
    rank_tests += other.rank_tests;
    accepted += other.accepted;
    spilled_bytes += other.spilled_bytes;
    rank_warmstart_reuses += other.rank_warmstart_reuses;
    rank_gathered_nnz += other.rank_gathered_nnz;
  }
};

struct SolveStats {
  std::uint64_t total_pairs_probed = 0;
  std::uint64_t total_pretest_survivors = 0;
  std::uint64_t total_rank_tests = 0;
  std::uint64_t total_accepted = 0;
  std::uint64_t total_duplicates_removed = 0;
  /// Candidate bytes that went out-of-core under memory pressure (sum over
  /// iterations; the governed-run ledger for report.json).
  std::uint64_t total_spilled_bytes = 0;
  std::uint64_t total_rank_warmstart_reuses = 0;
  std::uint64_t total_rank_gathered_nnz = 0;
  /// Never written: the solver has no popcount prune and no dense rank
  /// fallback, so both read 0.  Kept only for the benchmark driver, which
  /// still reports them as nullspace.pairs_pruned and rank_dense_fallbacks.
  std::uint64_t total_pairs_pruned = 0;
  std::uint64_t total_rank_dense_fallbacks = 0;
  std::uint64_t peak_columns = 0;
  std::size_t iterations = 0;
  /// Largest per-column storage snapshot observed (bytes), for the memory
  /// scalability analysis of §IV.B.
  std::size_t peak_matrix_bytes = 0;
  /// True if the CheckedI64 kernel overflowed and the solve was redone with
  /// BigInt.
  bool bigint_fallback = false;
  /// Phase timings: "gen cand", "rank test", "communicate", "merge" — the
  /// rows of Tables II and III.
  PhaseTimer phases;
  /// When true, absorb() also appends each IterationStats to `history`, so
  /// the run report can plot the column-growth curve.  Off by default: a
  /// large solve has one entry per constrained row and most callers only
  /// need the totals.
  bool keep_history = false;
  std::vector<IterationStats> history;

  void absorb(const IterationStats& it) {
    total_pairs_probed += it.pairs_probed;
    total_pretest_survivors += it.pretest_survivors;
    total_rank_tests += it.rank_tests;
    total_accepted += it.accepted;
    total_duplicates_removed += it.duplicates_removed;
    total_spilled_bytes += it.spilled_bytes;
    total_rank_warmstart_reuses += it.rank_warmstart_reuses;
    total_rank_gathered_nnz += it.rank_gathered_nnz;
    peak_columns = std::max<std::uint64_t>(peak_columns, it.columns_after);
    ++iterations;
    if (keep_history) history.push_back(it);
  }

  /// Sum every total_* counter of `other` into this ledger and take the
  /// larger peaks.
  void add_totals(const SolveStats& other) {
    total_pairs_probed += other.total_pairs_probed;
    total_pretest_survivors += other.total_pretest_survivors;
    total_rank_tests += other.total_rank_tests;
    total_accepted += other.total_accepted;
    total_duplicates_removed += other.total_duplicates_removed;
    total_spilled_bytes += other.total_spilled_bytes;
    total_rank_warmstart_reuses += other.total_rank_warmstart_reuses;
    total_rank_gathered_nnz += other.total_rank_gathered_nnz;
    peak_columns = std::max(peak_columns, other.peak_columns);
    peak_matrix_bytes = std::max(peak_matrix_bytes, other.peak_matrix_bytes);
    bigint_fallback = bigint_fallback || other.bigint_fallback;
  }

  /// Combine subproblem stats (divide-and-conquer aggregation).  Iteration
  /// histories concatenate (they used to be silently dropped, losing the
  /// growth curve of every subproblem after the first).
  void merge(const SolveStats& other) {
    add_totals(other);
    iterations += other.iterations;
    phases.merge(other.phases);
    keep_history = keep_history || other.keep_history;
    history.insert(history.end(), other.history.begin(),
                   other.history.end());
  }

  /// Reduce the per-rank ledgers of one distributed solve (Algorithms 2
  /// and 4).  Each rank counts only its own work, so counters sum; peaks
  /// and phase times take the largest rank (the paper reports the critical
  /// path); every rank runs every iteration, so the iteration count and
  /// history are rank 0's.
  static SolveStats reduce_ranks(const std::vector<SolveStats>& ranks) {
    SolveStats out;
    for (const SolveStats& rank : ranks) {
      out.add_totals(rank);
      out.phases.merge_max(rank.phases);
    }
    if (!ranks.empty()) {
      out.iterations = ranks.front().iterations;
      out.keep_history = ranks.front().keep_history;
      out.history = ranks.front().history;
    }
    return out;
  }
};

/// Publish one finished iteration to the global metrics registry.  Handles
/// are interned once (function-local statics); every call thereafter is a
/// handful of relaxed atomic ops, and a single relaxed load each when the
/// registry is disabled.
inline void publish_iteration_metrics(const IterationStats& it) {
  if constexpr (!obs::kObsCompiledIn) return;
  auto& registry = obs::Registry::global();
  static const obs::Counter iterations = registry.counter("solver.iterations");
  static const obs::Counter pairs = registry.counter("solver.pairs_probed");
  static const obs::Counter survivors =
      registry.counter("solver.pretest_survivors");
  static const obs::Counter rank_tests = registry.counter("solver.rank_tests");
  static const obs::Counter accepted = registry.counter("solver.accepted");
  static const obs::Counter duplicates =
      registry.counter("solver.duplicates_removed");
  static const obs::Counter rank_warm =
      registry.counter("solver.rank_warmstart_reuses");
  static const obs::Histogram iteration_pairs =
      registry.histogram("solver.iteration_pairs");
  static const obs::Gauge columns = registry.gauge("solver.columns");
  iterations.add(1);
  pairs.add(it.pairs_probed);
  survivors.add(it.pretest_survivors);
  rank_tests.add(it.rank_tests);
  accepted.add(it.accepted);
  duplicates.add(it.duplicates_removed);
  rank_warm.add(it.rank_warmstart_reuses);
  iteration_pairs.observe(it.pairs_probed);
  columns.set(it.columns_after);
}

}  // namespace elmo
