// Algorithm 1: the serial Nullspace Algorithm.
//
// Drives the iteration kernel over the processing order produced by
// compute_initial_basis.  Also the building block the parallel algorithms
// reuse: Algorithm 2 replaces the candidate-generation range with a
// per-rank slice, Algorithm 3 runs this with an exclusion set and the
// Proposition-1 filter.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "check/check.hpp"
#include "nullspace/initial_basis.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/modular_rank.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/rank_test.hpp"
#include "nullspace/reversible_split.hpp"
#include "nullspace/sparse_rank.hpp"
#include "nullspace/spill.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "resource/governor.hpp"
#include "resource/shutdown.hpp"
#include "support/timer.hpp"

namespace elmo {

/// Which elementarity test the solver applies to candidates.
enum class ElementarityTest {
  kRank,           // algebraic rank (nullity == 1) test — the paper's choice
  kCombinatorial,  // support-subset test — the classical alternative
};

/// Arithmetic backend for the rank test (when ElementarityTest::kRank).
/// The backends form a ladder: sparse-modular (default) falls back to the
/// dense-modular elimination per candidate when its cost model says so;
/// both share the Z_p decision procedure whose rejects are Monte-Carlo;
/// exact Bareiss (with a per-candidate BigInt fallback on overflow) is the
/// fully exact reference the others are differentially tested against.
enum class RankTestBackend {
  /// Sparse, warm-started elimination over Z_(2^61-1) (see
  /// nullspace/sparse_rank.hpp): gathers only the nonzero rows of a
  /// candidate's support columns, amortizes a shared rref factorization
  /// across all candidates and an echelonized common block across each
  /// iteration.  Verdict-identical to kModular; the default.
  kSparse,
  /// Dense elimination over Z_(2^61-1): accepts certified exactly, rejects
  /// Monte-Carlo with error probability ~2^-45 per candidate (see
  /// nullspace/modular_rank.hpp).  Kept as the sparse engine's
  /// differential oracle and fallback target.
  kModular,
  /// Fraction-free Bareiss in the kernel scalar (BigInt fallback per
  /// candidate): fully exact, used as the reference in tests.
  kExact,
};

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

template <typename Scalar, typename Support>
SolveResult<Scalar, Support> solve_nullspace(const EfmProblem<Scalar>& problem,
                                             const SolverOptions& options = {}) {
  SolveResult<Scalar, Support> result;
  result.stats.keep_history = options.record_history;
  auto basis = compute_initial_basis<Scalar, Support>(
      problem, options.ordering, options.exclude_rows);
  result.stats.peak_columns = basis.columns.size();

  RankTester<Scalar> exact_tester(problem.stoichiometry);
  // The modular testers need the initial kernel basis (for their K-side
  // formulation).
  std::optional<ModularRankTester<Scalar>> modular_tester;
  std::optional<SparseRankTester<Scalar>> sparse_tester;
  bool use_modular = false;
  bool use_sparse = false;
  if (options.test == ElementarityTest::kRank) {
    if (options.rank_backend == RankTestBackend::kSparse) {
      sparse_tester.emplace(problem.stoichiometry, basis.columns);
      use_sparse = true;
    } else if (options.rank_backend == RankTestBackend::kModular) {
      modular_tester.emplace(problem.stoichiometry, basis.columns);
      use_modular = true;
    }
  }
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
    if (use_sparse) {
      // Eliminate this iteration's shared K-side block once; every
      // candidate test below only reduces against the cached pivots.
      sparse_tester->begin_iteration(iteration_common_zero_rows(
          result.columns, cls.positive, cls.negative, row));
    }

    // Per-candidate elementarity oracle for the blocked generator.  For the
    // combinatorial test the per-column half runs here; the cross-candidate
    // half runs after all blocks.
    std::vector<const Support*> survivor_supports;
    if (options.test == ElementarityTest::kCombinatorial) {
      for (std::uint32_t j : cls.zero)
        survivor_supports.push_back(&result.columns[j].support);
      for (std::uint32_t j : cls.positive)
        survivor_supports.push_back(&result.columns[j].support);
      if (row_reversible) {
        for (std::uint32_t j : cls.negative)
          survivor_supports.push_back(&result.columns[j].support);
      }
    }
    auto is_elementary = [&](const Support& support) -> bool {
      if (options.test == ElementarityTest::kCombinatorial) {
        for (const Support* other : survivor_supports) {
          if (*other != support && other->is_subset_of(support)) return false;
        }
        return true;
      }
      if (use_sparse) return sparse_tester->is_elementary(support);
      if (use_modular) return modular_tester->is_elementary(support);
      return exact_tester.is_elementary(support);
    };

    if (!options.ignore_mem_limit)
      governor.enforce_resident("nullspace iteration (row " +
                                std::to_string(row) + ")");
    // Every governed iteration runs through the chunked out-of-core driver;
    // whether chunks actually hit disk is decided per chunk from the live
    // headroom under the limit (see process_pair_range_spilled).  The
    // coarse admit() pre-check would have to predict the candidate
    // transient, and a spike in an iteration whose matrix is still small
    // slips past any such projection.
    const bool spill_iteration =
        options.spill.always ||
        (options.spill.enabled && !options.ignore_mem_limit &&
         governor.enabled());

    std::vector<FluxColumn<Scalar, Support>> candidates;
    resource::MemoryLease candidate_lease(resource::Subsystem::kCandidates);
    try {
      if (spill_iteration) {
        iteration.spilled_bytes = process_pair_range_spilled(
            result.columns, row, cls, basis.stoichiometry_rank, 0,
            cls.pair_count(), options.block_ref_cap, is_elementary, iteration,
            result.stats.phases, candidates, options.spill);
      } else {
        process_pair_range(result.columns, row, cls, basis.stoichiometry_rank,
                           0, cls.pair_count(), options.block_ref_cap,
                           is_elementary, iteration, result.stats.phases,
                           candidates);
      }
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
    if (use_sparse) sparse_tester->drain_stats(iteration);
    if (options.test == ElementarityTest::kCombinatorial)
      cross_candidate_subset_filter(candidates, iteration);

    if (options.audit && options.test == ElementarityTest::kRank) {
      // Re-verify every accepted candidate with the exact Bareiss backend,
      // independent of the (possibly Monte-Carlo modular) test that
      // accepted it.
      check::InvariantAuditor{}.check_rank_nullity(
          exact_tester, candidates,
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
