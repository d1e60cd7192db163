// Algorithm 2: the combinatorial parallel Nullspace Algorithm.
//
// Distributed-memory parallelisation of Algorithm 1 (Jevremovic et al.,
// TR 10-028; paper §II.D): every rank holds a replica of the current
// nullspace matrix; each iteration's positive x negative candidate pair
// space is sliced contiguously across ranks; each rank generates, dedups
// and rank-tests its slice locally, then an all-gather exchanges the
// accepted candidates and every rank rebuilds the identical next matrix
// (Communicate&Merge).  The full-replication design is the algorithm's
// documented weakness — per-rank memory grows with the matrix — which the
// per-rank memory budget surfaces exactly as on the paper's Network II run
// (abandoned at iteration 59).
//
// Each rank runs Algorithm 1's loop (solve_nullspace, nullspace/solver.hpp)
// and passes it a RankPart: its pair slice, its SMP worker count, and the
// exchange built here from its Communicator — the pair-conservation audit,
// the all-gather and the cross-rank Sort&RemoveDuplicates.  A one-rank
// world (Algorithm 3's one-rank groups) exchanges nothing: its exchange is
// one barrier.  Everything else an iteration does is the serial solver's
// code.
#pragma once

#include <optional>
#include <vector>

#include "check/check.hpp"
#include "mpsim/communicator.hpp"
#include "mpsim/serialize.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/reversible_split.hpp"
#include "nullspace/solver.hpp"
#include "nullspace/stats.hpp"
#include "resource/watchdog.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace elmo {

struct ParallelOptions {
  /// Number of simulated compute ranks (the paper's "# nodes").
  int num_ranks = 4;
  /// Shared-memory workers per rank — Blue Gene/P's SMP (1 process + 3
  /// threads) and dual modes, and the Xeon nodes' "cores per node" column
  /// of Table II.  Each rank splits its pair slice across this many
  /// threads; candidates are merged and deduped rank-locally before the
  /// all-gather.  Algorithm 4 (partitioned_parallel.hpp) accepts only 1.
  int threads_per_rank = 1;
  SolverOptions solver;
  /// Per-rank memory budget in bytes (0 = unlimited).  Exceeding it throws
  /// MemoryBudgetError out of the solve.
  std::size_t memory_budget_per_rank = 0;
  /// Optional deterministic fault injection (crashes, corruption, drops,
  /// stragglers) applied to the simulated world; see mpsim/fault.hpp.
  std::shared_ptr<mpsim::FaultPlan> fault_plan;
  /// Watchdog supervision of this world: soft deadline emits a straggler
  /// diagnosis, hard deadline / stall aborts the run with
  /// DeadlineExceededError (the combined driver re-queues with a split).
  resource::Deadlines deadlines;
};

template <typename Scalar, typename Support>
struct ParallelSolveResult {
  std::vector<FluxColumn<Scalar, Support>> columns;
  SolveStats stats;
  mpsim::RunReport ranks;
  /// Each rank's own ledger (slice-local counters and phase times), for
  /// per-rank run reports.  per_rank[r] belongs to simulated rank r.
  std::vector<SolveStats> per_rank;
};

/// The simulated world both distributed drivers run in (Algorithms 2 and
/// 4).  Preprocesses once (every rank would compute the identical split;
/// doing it outside the world keeps startup honest to measure), runs
/// `rank_solve(comm, problem, solver_options)` on every rank, keeps rank
/// 0's columns back in the unsplit space and reduces the rank ledgers.
template <typename Scalar, typename Support, typename RankSolve>
ParallelSolveResult<Scalar, Support> run_world(
    const EfmProblem<Scalar>& problem, const ParallelOptions& options,
    const RankSolve& rank_solve) {
  ELMO_REQUIRE(options.num_ranks >= 1, "num_ranks must be positive");
  auto prepared = prepare_problem(problem);
  SolverOptions solver_options = options.solver;
  solver_options.exclude_rows = prepared.excluded(options.solver.exclude_rows);

  // Per-rank outputs (distinct slots; no locking needed).
  std::vector<SolveStats> rank_stats(
      static_cast<std::size_t>(options.num_ranks));
  std::optional<std::vector<FluxColumn<Scalar, Support>>> final_columns;
  auto body = [&](mpsim::Communicator& comm) {
    SolveStats& stats = rank_stats[static_cast<std::size_t>(comm.rank())];
    SolveResult<Scalar, Support> solved =
        rank_solve(comm, prepared.problem, solver_options);
    stats = std::move(solved.stats);
    if (comm.rank() == 0) {
      // Rank 0 is the only writer; run_ranks joins every thread before
      // the spawner reads it.  analyze:shared-ok
      final_columns = unsplit_columns(std::move(solved.columns), prepared);
    }
  };
  mpsim::RunOptions run_options;
  run_options.memory_budget_per_rank = options.memory_budget_per_rank;
  run_options.fault_plan = options.fault_plan;
  run_options.deadlines = options.deadlines;
  auto report = mpsim::run_ranks(options.num_ranks, body, run_options);

  ParallelSolveResult<Scalar, Support> result;
  ELMO_CHECK(final_columns.has_value(), "rank 0 produced no result");
  result.columns = std::move(*final_columns);
  result.ranks = std::move(report);
  result.stats = SolveStats::reduce_ranks(rank_stats);
  result.per_rank = std::move(rank_stats);
  return result;
}

template <typename Scalar, typename Support>
ParallelSolveResult<Scalar, Support> solve_combinatorial_parallel(
    const EfmProblem<Scalar>& problem, const ParallelOptions& options) {
  using Columns = std::vector<FluxColumn<Scalar, Support>>;
  auto rank_solve = [&](mpsim::Communicator& comm,
                        const EfmProblem<Scalar>& prepared,
                        const SolverOptions& solver_options) {
    RankPart<Scalar, Support> part;
    part.rank = comm.rank();
    part.num_ranks = options.num_ranks;
    part.workers = options.threads_per_rank;
    part.charge = [&comm](std::size_t bytes) { comm.set_memory_usage(bytes); };
    part.exchange = [&](const RowClassification& cls,
                        const IterationStats& slice, Columns& candidates,
                        PhaseTimer& phases) {
      if (solver_options.audit) {
        // pair-conservation: rank slices must partition the global pair
        // set — an all-reduce over slice-local probed counts has to land
        // exactly on positives x negatives.  (Collective: every rank
        // participates, every rank verifies the same sum.)
        check::InvariantAuditor{}.check_pair_conservation(
            comm.all_reduce_sum(slice.pairs_probed), cls.pair_count(),
            "solve_combinatorial_parallel row " + std::to_string(slice.row));
      }
      if (comm.size() == 1) {
        // A one-rank group's slice is the whole pair space, deduplicated
        // before its rank tests as in a serial run: no self-exchange.  One
        // barrier keeps an operation per iteration for fault triggers,
        // stragglers, the watchdog's progress counter and abort checks.
        comm.barrier();
        IterationStats counts;
        counts.accepted = candidates.size();
        return counts;
      }
      // Communicate&Merge: exchange accepted candidates; every rank then
      // rebuilds the identical replicated next matrix.
      Columns world;
      {
        ScopedPhase phase(phases, Phase::kCommunicate);
        for (const auto& batch :
             comm.all_gather(mpsim::encode_columns(candidates))) {
          auto incoming = mpsim::decode_columns<Scalar, Support>(batch);
          world.insert(world.end(), std::make_move_iterator(incoming.begin()),
                       std::make_move_iterator(incoming.end()));
        }
      }
      // Cross-rank duplicates: different pairs on different ranks can
      // produce the same candidate.
      IterationStats counts;
      ScopedPhase phase(phases, Phase::kMerge);
      sort_and_dedup(world, counts);
      counts.accepted = world.size();
      candidates = std::move(world);
      return counts;
    };
    auto solved = solve_nullspace<Scalar, Support>(prepared, solver_options,
                                                   part);
    // Only rank 0 keeps history, and its rows plot GLOBAL quantities: each
    // row's pair count is the full pos x neg product (the matrix is
    // replicated), not rank 0's slice; the totals keep slice-local sums.
    for (auto& row : solved.stats.history)
      row.pairs_probed = row.positives * row.negatives;
    return solved;
  };
  return run_world<Scalar, Support>(problem, options, rank_solve);
}

}  // namespace elmo
