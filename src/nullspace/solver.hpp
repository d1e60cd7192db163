// Algorithm 1, the serial Nullspace Algorithm, and the one iteration loop
// over a replicated matrix.
//
// solve_nullspace drives the iteration kernel (nullspace/iteration.hpp)
// over the processing order produced by compute_initial_basis.  Algorithm 2
// runs each of its ranks through this same loop
// (core/combinatorial_parallel.hpp): the rank hands in a RankPart — its
// slice of every iteration's pos x neg pair space, its SMP worker count and
// the Communicate&Merge exchange built from its Communicator.  Algorithm 3
// runs Algorithm 2 per subset with an exclusion set and the Proposition-1
// filter.  Algorithm 4 (core/partitioned_parallel.hpp) moves its own data
// but opens and closes every iteration through the same IterationFrame.
// Every driver decides elementarity with the paper's rank test on one
// engine, SparseRankTester (nullspace/sparse_rank.hpp), staged once per
// iteration; the exact Bareiss RankTester exists only under audit.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "check/check.hpp"
#include "nullspace/initial_basis.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/pairgen.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/rank_test.hpp"
#include "nullspace/reversible_split.hpp"
#include "nullspace/sparse_rank.hpp"
#include "nullspace/spill.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/partitioner.hpp"
#include "parallel/thread_pool.hpp"
#include "resource/governor.hpp"
#include "resource/shutdown.hpp"
#include "support/timer.hpp"

namespace elmo {

struct SolverOptions {
  OrderingOptions ordering;
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

/// The bookkeeping around every iteration of every Nullspace driver:
/// solve_nullspace (serial and each Algorithm 2 rank) and Algorithm 4's
/// shard loop open and close their iterations here.  The `leader` (rank 0;
/// the serial solver is its own) keeps the history and reports the trace
/// counter, the observer calls and the final minimality audit.  `charge`,
/// when set, receives the rank's resident bytes after every iteration (the
/// simulated per-rank memory budget).
template <typename Scalar, typename Support>
class IterationFrame {
 public:
  using Columns = std::vector<FluxColumn<Scalar, Support>>;

  IterationFrame(const Matrix<Scalar>& stoichiometry,
                 const SolverOptions& options, SolveStats& stats, bool leader,
                 std::function<void(std::size_t)> charge = {})
      : stoichiometry_(stoichiometry), options_(options), stats_(stats),
        leader_(leader), charge_(std::move(charge)) {
    stats_.keep_history = options_.record_history && leader_;
    if (options_.audit) exact_.emplace(stoichiometry_);
  }

  /// Charge the starting matrix: `columns` seeds peak_columns; the governor
  /// lease is the resident floor the chunked candidate driver's flushes
  /// respect (the matrix cannot spill; candidates can).
  void start(std::size_t columns, std::size_t resident_bytes) {
    stats_.peak_columns = columns;
    matrix_lease_.set(resident_bytes);
  }

  /// Open the iteration processing `row`: honour a shutdown request,
  /// enforce --mem-limit residency, and return the iteration's trace span
  /// (label fixed, the row in args.detail, formatted only when tracing).
  [[nodiscard]] obs::TraceSpan open(std::size_t row) const {
    const std::string where =
        "nullspace iteration (row " + std::to_string(row) + ")";
    resource::throw_if_shutdown_requested(where);
    if (!options_.ignore_mem_limit)
      resource::MemoryGovernor::global().enforce_resident(where);
    return obs::TraceSpan("iteration", "solve",
                          obs::trace() != nullptr ? "row " + std::to_string(row)
                                                  : std::string());
  }

  /// rank-nullity audit: re-verify the candidates this rank accepted with
  /// the exact Bareiss tester, independent of the modular engine (whose
  /// rejects are Monte-Carlo) that accepted them.
  void audit_accepted(const Columns& accepted, std::size_t row) {
    if (!exact_) return;
    check::InvariantAuditor{}.check_rank_nullity(
        *exact_, accepted, "nullspace row " + std::to_string(row));
  }

  /// Close the iteration: charge `resident_bytes` (governor lease, peak,
  /// per-rank budget), book `iteration` into the stats and the metrics
  /// registry, audit S*R = 0 on the columns this rank holds, and report to
  /// the observer.
  void close(const IterationStats& iteration, const Columns& columns,
             std::size_t resident_bytes) {
    matrix_lease_.set(resident_bytes);
    stats_.peak_matrix_bytes =
        std::max(stats_.peak_matrix_bytes, resident_bytes);
    stats_.absorb(iteration);
    publish_iteration_metrics(iteration);
    if (charge_) charge_(resident_bytes);
    if (options_.audit) {
      // Columns must stay inside null(S) across every Merge (paper §II.A).
      check::InvariantAuditor{}.check_nullspace_product(
          stoichiometry_, columns,
          "nullspace after row " + std::to_string(iteration.row));
    }
    if (!leader_) return;
    obs::trace_counter("columns", iteration.columns_after);
    if (options_.on_iteration) options_.on_iteration(iteration);
  }

  /// Audit the final column set as a support antichain (elementarity).
  /// Skipped for divide-and-conquer sub-solves: the combined driver audits
  /// its merged final set instead.
  void finish(const Columns& columns) const {
    if (options_.audit && leader_ && options_.exclude_rows.empty()) {
      check::InvariantAuditor{}.check_support_minimality(columns,
                                                         "nullspace final");
    }
  }

 private:
  const Matrix<Scalar>& stoichiometry_;
  const SolverOptions& options_;
  SolveStats& stats_;
  bool leader_;
  std::function<void(std::size_t)> charge_;
  std::optional<RankTester<Scalar>> exact_;  // built only under audit
  resource::MemoryLease matrix_lease_{resource::Subsystem::kMatrix};
};

/// One rank's part in a replicated distributed solve (Algorithm 2, paper
/// §II.D): it generates slice `rank` of `num_ranks` of every iteration's
/// pair space on `workers` SMP threads.  `exchange` (Communicate&Merge)
/// swaps the rank's accepted slice for the world's deduplicated set and
/// returns that set's counts (accepted, cross-rank duplicates_removed);
/// `slice` is the rank's iteration so far.  `charge` goes to the
/// IterationFrame.  The default is the serial solver.
template <typename Scalar, typename Support>
struct RankPart {
  using Columns = std::vector<FluxColumn<Scalar, Support>>;
  int rank = 0;
  int num_ranks = 1;
  int workers = 1;
  std::function<IterationStats(const RowClassification& cls,
                               const IterationStats& slice,
                               Columns& candidates, PhaseTimer& phases)>
      exchange;
  std::function<void(std::size_t)> charge;
};

/// Generate, dedup and test one iteration's pair `range`, appending the
/// accepted candidates; `make_test(worker)` is that worker's staged
/// elementarity test.  The one place an iteration picks its path: SMP
/// workers share the range in memory; one worker takes the chunked
/// out-of-core driver whenever the run is governed (chunks hit disk only
/// when the live headroom says so: the candidate transient cannot be
/// predicted up front), else the in-memory driver.
template <typename Scalar, typename Support, typename MakeTest>
void generate_pair_range(
    const SolverOptions& options,
    const std::vector<FluxColumn<Scalar, Support>>& columns, std::size_t row,
    const RowClassification& cls, std::size_t rank, PairRange range,
    const MakeTest& make_test, ThreadPool* pool, IterationStats& iteration,
    PhaseTimer& phases, std::vector<FluxColumn<Scalar, Support>>& accepted) {
  if (pool == nullptr) {
    const bool spill = options.spill.always ||
                       (options.spill.enabled && !options.ignore_mem_limit &&
                        resource::MemoryGovernor::global().enabled());
    if (spill) {
      iteration.spilled_bytes += process_pair_range_spilled(
          columns, row, cls, rank, range.begin, range.end,
          options.block_ref_cap, make_test(0), iteration, phases,
          accepted, options.spill);
    } else {
      process_pair_range(columns, row, cls, rank, range.begin, range.end,
                         options.block_ref_cap, make_test(0), iteration,
                         phases, accepted);
    }
    return;
  }
  // SMP: workers steal adaptive batches off a shared cursor (survivor
  // density is wildly skewed across the pair space; static per-thread
  // sub-slices idled every worker but the unluckiest), all probing against
  // one shared set of per-iteration engine tables.  Thread-local results
  // are merged and deduped like the cross-rank merge (distinct batches can
  // still produce the same candidate).
  const std::size_t workers = pool->size();
  PairGenTables<Scalar, Support> tables(columns, row, cls.positive,
                                        cls.negative, cls.zero, rank);
  std::vector<IterationStats> worker_stats(workers);
  std::vector<PhaseTimer> worker_phases(workers);
  std::vector<std::vector<FluxColumn<Scalar, Support>>> worker_accepted(
      workers);
  // Batches small enough to balance a skewed tail, large enough that the
  // per-batch engine setup (a cursor, no tables) stays noise.
  constexpr std::uint64_t kMinGrain = 4096;
  parallel_for_dynamic(
      *pool, range.count(), kMinGrain,
      [&](int t, std::uint64_t sub_begin, std::uint64_t sub_end) {
        const auto w = static_cast<std::size_t>(t);
        process_pair_range(columns, row, cls, rank, range.begin + sub_begin,
                           range.begin + sub_end, options.block_ref_cap,
                           make_test(w), worker_stats[w],
                           worker_phases[w], worker_accepted[w], &tables);
      });
  PhaseTimer slowest_worker;  // per-iteration max across workers
  for (std::size_t w = 0; w < workers; ++w) {
    iteration.add_counters(worker_stats[w]);
    slowest_worker.merge_max(worker_phases[w]);
    accepted.insert(accepted.end(),
                    std::make_move_iterator(worker_accepted[w].begin()),
                    std::make_move_iterator(worker_accepted[w].end()));
  }
  // Wall-clock: workers run concurrently, so the iteration costs the
  // slowest worker's time.
  phases.merge(slowest_worker);
  ScopedPhase phase(phases, Phase::kMerge);
  sort_and_dedup(accepted, iteration);
}

/// The one iteration loop over a replicated matrix: Algorithm 1 as given,
/// one Algorithm 2 rank with a RankPart.
template <typename Scalar, typename Support>
SolveResult<Scalar, Support> solve_nullspace(
    const EfmProblem<Scalar>& problem, const SolverOptions& options = {},
    const RankPart<Scalar, Support>& part = {}) {
  using Columns = std::vector<FluxColumn<Scalar, Support>>;
  SolveResult<Scalar, Support> result;
  Columns& columns = result.columns;
  SolveStats& stats = result.stats;
  const bool leader = part.rank == 0;
  auto basis = compute_initial_basis<Scalar, Support>(
      problem, options.ordering, options.exclude_rows);
  // One tester per worker: testers carry scratch buffers and warm caches
  // and are not shareable across threads.
  const auto workers = static_cast<std::size_t>(std::max(part.workers, 1));
  std::vector<SparseRankTester<Scalar>> testers;
  testers.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    testers.emplace_back(problem.stoichiometry, basis.columns);
  auto make_test = [&testers](std::size_t worker) {
    return [&testers, worker](const Support& support) {
      return testers[worker].is_elementary(support);
    };
  };
  std::optional<ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  columns = std::move(basis.columns);

  // Each rank's replica is a real allocation here, so --mem-limit sees
  // Algorithm 2's full replication cost (num_ranks x matrix).
  IterationFrame<Scalar, Support> frame(problem.stoichiometry, options,
                                        stats, leader, part.charge);
  frame.start(columns.size(), matrix_storage_bytes(columns));

  for (std::size_t row : basis.processing_order) {
    const obs::TraceSpan span = frame.open(row);
    IterationStats iteration;
    iteration.row = row;
    auto cls = classify_row(columns, row);
    iteration.positives = cls.positive.size();
    iteration.negatives = cls.negative.size();
    // The matrix is replicated, so every worker's tester stages the same
    // iteration.
    const auto common_rows = iteration_common_zero_rows(
        columns, cls.positive, cls.negative, row);
    for (auto& tester : testers) tester.begin_iteration(common_rows);

    // GenerateEFMCands + Sort&RemoveDuplicates + the per-candidate
    // elementarity test over this rank's contiguous pair slice (the whole
    // pair space when serial), in bounded-memory blocks.  The test is
    // per-candidate local — that is what makes Algorithm 2's distribution
    // work.
    Columns candidates;
    // Transient candidate charge, released once the iteration merged.
    resource::MemoryLease candidate_lease(resource::Subsystem::kCandidates);
    try {
      generate_pair_range(
          options, columns, row, cls, basis.stoichiometry_rank,
          pair_slice(cls.pair_count(), part.rank, part.num_ranks), make_test,
          pool ? &*pool : nullptr, iteration, stats.phases, candidates);
    } catch (const std::bad_alloc&) {
      // Classify allocation failure so the retry ladder can degrade
      // (smaller tiles, spill-always, serial) instead of aborting the run.
      auto& governor = resource::MemoryGovernor::global();
      throw ResourceError("nullspace iteration (row " + std::to_string(row) +
                              "): allocation failed (std::bad_alloc) with " +
                              std::to_string(governor.usage()) +
                              " B charged",
                          0, governor.limit());
    }
    for (auto& tester : testers) tester.drain_stats(iteration);
    candidate_lease.set(matrix_storage_bytes(candidates));
    frame.audit_accepted(candidates, row);

    // Communicate&Merge: the exchange swaps this rank's accepted slice for
    // the world's deduplicated set.  Without one the set is the solver's
    // own.
    IterationStats world;
    world.accepted = candidates.size();
    if (part.exchange) {
      world = part.exchange(cls, iteration, candidates, stats.phases);
      candidate_lease.set(matrix_storage_bytes(candidates));
    }
    // The world's counts are booked once, on the leader: summing the rank
    // ledgers (SolveStats::reduce_ranks) and the published metrics then
    // both land on the world totals.
    if (leader) {
      iteration.accepted = world.accepted;
      iteration.duplicates_removed += world.duplicates_removed;
    } else {
      iteration.accepted = 0;
    }
    {
      ScopedPhase phase(stats.phases, Phase::kMerge);
      columns = merge_next(std::move(columns), cls, problem.reversible[row],
                           std::move(candidates));
    }
    iteration.columns_after = columns.size();
    frame.close(iteration, columns, matrix_storage_bytes(columns));
  }
  frame.finish(columns);
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
