// Algorithm 1: the serial Nullspace Algorithm.
//
// Drives the iteration kernel over the processing order produced by
// compute_initial_basis.  Also the building block the parallel algorithms
// reuse: Algorithm 2 replaces the candidate-generation range with a
// per-rank slice, Algorithm 3 runs this with an exclusion set and the
// Proposition-1 filter.
#pragma once

#include <functional>
#include <vector>

#include "check/check.hpp"
#include "nullspace/elementarity.hpp"
#include "nullspace/initial_basis.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/reversible_split.hpp"
#include "nullspace/spill.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "resource/governor.hpp"
#include "resource/shutdown.hpp"
#include "support/timer.hpp"

namespace elmo {

struct SolverOptions {
  OrderingOptions ordering;
  ElementarityTest test = ElementarityTest::kRank;
  RankTestBackend rank_backend = RankTestBackend::kSparse;
  /// Candidate refs held in memory at once (bounded-memory blocking of the
  /// candidate stream); the default caps transient usage around 100 MB.
  std::size_t block_ref_cap = std::size_t{1} << 21;
  /// Rows the caller wants left unprocessed (divide-and-conquer's
  /// nonzero-flux partition reactions), as reduced row indices.
  std::vector<std::size_t> exclude_rows;
  /// Optional per-iteration observer (progress logging, memory budget
  /// enforcement).  Called after each iteration with its stats.
  std::function<void(const IterationStats&)> on_iteration;
  /// Keep the per-iteration history on SolveStats (column-growth curve for
  /// run reports).  One IterationStats per constrained row.
  bool record_history = false;
  /// Re-verify the algorithm's algebraic invariants at runtime (S*R = 0
  /// after every iteration, exact rank-nullity of accepted candidates,
  /// support minimality of the final set).  Opt-in: audit mode costs extra
  /// passes per iteration.  See check/audit.hpp.
  bool audit = false;
  /// Out-of-core candidate policy under MemoryGovernor pressure (see
  /// nullspace/spill.hpp).  Inert unless enabled or the governor has a
  /// limit configured.
  SpillPolicy spill;
  /// Run even when the resident charge busts `--mem-limit` (the retry
  /// ladder's ungoverned final rung: completing slowly beats failing).
  bool ignore_mem_limit = false;
};

template <typename Scalar, typename Support>
struct SolveResult {
  std::vector<FluxColumn<Scalar, Support>> columns;
  SolveStats stats;
};

/// Approximate heap bytes of a column matrix (memory-scalability metric).
template <typename Scalar, typename Support>
std::size_t matrix_storage_bytes(
    const std::vector<FluxColumn<Scalar, Support>>& columns) {
  std::size_t bytes = columns.capacity() * sizeof(FluxColumn<Scalar, Support>);
  for (const auto& column : columns) bytes += column.storage_bytes();
  return bytes;
}

/// One iteration's generate-dedup-test step over pair range [begin, end),
/// appending accepted candidates to `accepted`.  This is the one place the
/// serial solver and Algorithm 2 decide whether an iteration runs in
/// memory or through the chunked out-of-core driver.  Every governed
/// iteration takes the chunked driver; whether chunks actually hit disk is
/// decided per chunk from the live headroom under the limit (see
/// process_pair_range_spilled).  A coarse admit() pre-check would have to
/// predict the candidate transient, and a spike in an iteration whose
/// matrix is still small slips past any such projection.
template <typename Scalar, typename Support, typename TestFn>
void run_pair_range(const SolverOptions& options,
                    const std::vector<FluxColumn<Scalar, Support>>& columns,
                    std::size_t row, const RowClassification& cls,
                    std::size_t rank, std::uint64_t begin, std::uint64_t end,
                    const TestFn& is_elementary, IterationStats& iteration,
                    PhaseTimer& phases,
                    std::vector<FluxColumn<Scalar, Support>>& accepted) {
  const bool spill = options.spill.always ||
                     (options.spill.enabled && !options.ignore_mem_limit &&
                      resource::MemoryGovernor::global().enabled());
  if (spill) {
    iteration.spilled_bytes += process_pair_range_spilled(
        columns, row, cls, rank, begin, end, options.block_ref_cap,
        is_elementary, iteration, phases, accepted, options.spill);
  } else {
    process_pair_range(columns, row, cls, rank, begin, end,
                       options.block_ref_cap, is_elementary, iteration, phases,
                       accepted);
  }
}

template <typename Scalar, typename Support>
SolveResult<Scalar, Support> solve_nullspace(const EfmProblem<Scalar>& problem,
                                             const SolverOptions& options = {}) {
  SolveResult<Scalar, Support> result;
  result.stats.keep_history = options.record_history;
  auto basis = compute_initial_basis<Scalar, Support>(
      problem, options.ordering, options.exclude_rows);
  result.stats.peak_columns = basis.columns.size();
  Elementarity<Scalar, Support> oracle(problem.stoichiometry, basis.columns,
                                       options.test, options.rank_backend);
  auto is_elementary = [&oracle](const Support& support) {
    return oracle.is_elementary(support);
  };
  result.columns = std::move(basis.columns);

  // Resource governance: charge the live matrix against the process ledger
  // so the governor's flush decisions inside the chunked candidate driver
  // see the true resident floor (the matrix cannot spill; candidates can).
  auto& governor = resource::MemoryGovernor::global();
  resource::MemoryLease matrix_lease(resource::Subsystem::kMatrix);
  matrix_lease.set(matrix_storage_bytes(result.columns));

  for (std::size_t row : basis.processing_order) {
    resource::throw_if_shutdown_requested("nullspace iteration (row " +
                                          std::to_string(row) + ")");
    // Span label is the fixed literal; the row index goes in args.detail
    // (formatted only when tracing is on).
    obs::TraceSpan iteration_span(
        "iteration", "solve",
        obs::trace() != nullptr ? "row " + std::to_string(row)
                                : std::string());
    IterationStats iteration;
    iteration.row = row;
    auto cls = classify_row(result.columns, row);
    iteration.positives = cls.positive.size();
    iteration.negatives = cls.negative.size();
    const bool row_reversible = problem.reversible[row];
    oracle.begin_iteration(result.columns, cls, row, row_reversible);

    if (!options.ignore_mem_limit)
      governor.enforce_resident("nullspace iteration (row " +
                                std::to_string(row) + ")");
    std::vector<FluxColumn<Scalar, Support>> candidates;
    resource::MemoryLease candidate_lease(resource::Subsystem::kCandidates);
    try {
      run_pair_range(options, result.columns, row, cls,
                     basis.stoichiometry_rank, 0, cls.pair_count(),
                     is_elementary, iteration, result.stats.phases,
                     candidates);
      // Charge the surviving candidates (the spilled path's lease inside
      // process_pair_range_spilled covers only its in-flight chunk).
      candidate_lease.set(matrix_storage_bytes(candidates));
    } catch (const std::bad_alloc&) {
      // Classify allocation failure so the retry ladder can degrade
      // (smaller tiles, spill-always, serial) instead of aborting the run.
      throw ResourceError("nullspace iteration (row " + std::to_string(row) +
                              "): allocation failed (std::bad_alloc) with " +
                              std::to_string(governor.usage()) +
                              " B charged",
                          0, governor.limit());
    }
    oracle.drain(iteration);
    if (options.test == ElementarityTest::kCombinatorial)
      cross_candidate_subset_filter(candidates, iteration);

    if (options.audit && options.test == ElementarityTest::kRank) {
      // Re-verify every accepted candidate with the exact Bareiss backend,
      // independent of the (possibly Monte-Carlo modular) test that
      // accepted it.
      check::InvariantAuditor{}.check_rank_nullity(
          oracle.exact(), candidates,
          "solve_nullspace row " + std::to_string(row));
    }

    result.columns = merge_next(std::move(result.columns), cls,
                                row_reversible, std::move(candidates));
    iteration.columns_after = result.columns.size();
    const std::size_t matrix_bytes = matrix_storage_bytes(result.columns);
    matrix_lease.set(matrix_bytes);
    result.stats.peak_matrix_bytes =
        std::max(result.stats.peak_matrix_bytes, matrix_bytes);
    result.stats.absorb(iteration);
    publish_iteration_metrics(iteration);
    obs::trace_counter("columns", iteration.columns_after);
    if (options.audit) {
      // Columns must stay inside null(S) across every Merge (paper §II.A).
      check::InvariantAuditor{}.check_nullspace_product(
          problem.stoichiometry, result.columns,
          "solve_nullspace after row " + std::to_string(row));
    }
    if (options.on_iteration) options.on_iteration(iteration);
  }
  if (options.audit && options.exclude_rows.empty()) {
    // Final column set is a support antichain (elementarity).  Skipped for
    // divide-and-conquer sub-solves: the combined driver audits its merged
    // final set instead.
    check::InvariantAuditor{}.check_support_minimality(
        result.columns, "solve_nullspace final");
  }
  return result;
}

/// Algorithm 1 with automatic reversible-split preprocessing: networks
/// whose reversible columns are linearly dependent (duplicated reversible
/// reactions, fully reversible cycles) are handled transparently.  Columns
/// come back in the ORIGINAL reduced reaction space.
template <typename Scalar, typename Support>
SolveResult<Scalar, Support> solve_efms(const EfmProblem<Scalar>& problem,
                                        const SolverOptions& options = {}) {
  auto prepared = prepare_problem(problem);
  auto result = solve_nullspace<Scalar, Support>(prepared.problem, options);
  result.columns = unsplit_columns(std::move(result.columns), prepared);
  return result;
}

}  // namespace elmo
