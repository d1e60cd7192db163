// Algorithm 4: the matrix-partitioned parallel Nullspace Algorithm —
// the paper's future-work item #1 implemented.
//
// "Future work should focus on several points.  First, the current
//  nullspace matrix should not be stored across all the compute nodes in
//  the combinatorial parallel Nullspace Algorithm, but should be
//  partitioned in an efficient way instead."  (paper, §V)
//
// Design: each rank OWNS a shard of the current matrix's columns instead of
// a full replica.  Per iteration:
//
//   1. every rank classifies its shard locally (zero/positive/negative),
//   2. the POSITIVE columns — by the paper's reversible-last heuristic the
//      side that irreversible processing retains — are all-gathered so each
//      rank can pair the full positive set against its LOCAL negatives;
//      pair counting still covers the complete pos x neg cross product with
//      no overlap,
//   3. candidates are rank-tested locally (the rank test needs only the
//      fixed stoichiometry), then deduped globally by an all-gather of the
//      candidate SUPPORTS only,
//   4. accepted candidates are appended to the generating rank's shard, and
//      shards are rebalanced by moving whole columns from overfull to
//      underfull ranks (cheapest-first, preserving the global sort order
//      guarantees not at all — shards are sets, order is irrelevant).
//
// Memory per rank is O(shard + positive side + transient candidates)
// instead of O(full matrix): bench_memory quantifies the difference.  The
// EFM SET produced is identical to Algorithms 1-3 (tests assert equality);
// the distribution of columns across ranks is an implementation detail.
//
// Caveat shared with the paper's design sketch: the positive side is
// replicated during an iteration.  For rows where the positive side is the
// larger one this bounds the saving; the processing-order heuristics make
// that uncommon in practice (the bench reports actual peaks).
#pragma once

#include <optional>

#include "bigint/checked.hpp"
#include "mpsim/communicator.hpp"
#include "mpsim/serialize.hpp"
#include "nullspace/elementarity.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace elmo {

struct PartitionedOptions {
  int num_ranks = 4;
  SolverOptions solver;
  std::size_t memory_budget_per_rank = 0;
  /// Optional deterministic fault injection; see mpsim/fault.hpp.
  std::shared_ptr<mpsim::FaultPlan> fault_plan;
};

template <typename Scalar, typename Support>
struct PartitionedSolveResult {
  std::vector<FluxColumn<Scalar, Support>> columns;  // gathered at the end
  SolveStats stats;
  mpsim::RunReport ranks;
  /// Peak per-rank bytes (shard + replicated positives) — the quantity
  /// Algorithm 4 is designed to shrink versus Algorithm 2's full replica.
  std::size_t peak_rank_bytes = 0;
  /// Each rank's own ledger, for per-rank run reports.
  std::vector<SolveStats> per_rank;
};

template <typename Scalar, typename Support>
PartitionedSolveResult<Scalar, Support> solve_partitioned_parallel(
    const EfmProblem<Scalar>& problem, const PartitionedOptions& options) {
  const int num_ranks = options.num_ranks;
  ELMO_REQUIRE(num_ranks >= 1, "num_ranks must be positive");
  ELMO_REQUIRE(options.solver.test == ElementarityTest::kRank,
               "the partitioned algorithm requires the (local) rank test");

  auto prepared = prepare_problem(problem);
  SolverOptions solver_options = options.solver;
  solver_options.exclude_rows = prepared.excluded(options.solver.exclude_rows);

  std::vector<SolveStats> rank_stats(static_cast<std::size_t>(num_ranks));
  std::optional<std::vector<FluxColumn<Scalar, Support>>> final_columns;

  auto body = [&](mpsim::Communicator& comm) {
    using Column = FluxColumn<Scalar, Support>;
    const int rank = comm.rank();
    SolveStats& stats = rank_stats[static_cast<std::size_t>(rank)];

    auto basis = compute_initial_basis<Scalar, Support>(
        prepared.problem, solver_options.ordering,
        solver_options.exclude_rows);
    stats.peak_columns = basis.columns.size();
    Elementarity<Scalar, Support> oracle(
        prepared.problem.stoichiometry, basis.columns, solver_options.test,
        solver_options.rank_backend);
    auto is_elementary = [&oracle](const Support& support) {
      return oracle.is_elementary(support);
    };

    // Shard the initial basis round-robin.
    std::vector<Column> shard;
    for (std::size_t c = 0; c < basis.columns.size(); ++c) {
      if (static_cast<int>(c % num_ranks) == rank)
        shard.push_back(std::move(basis.columns[c]));
    }

    for (std::size_t row : basis.processing_order) {
      obs::TraceSpan iteration_span(
          "iteration", "solve",
          obs::trace() != nullptr ? "row " + std::to_string(row)
                                  : std::string());
      IterationStats iteration;
      iteration.row = row;
      const bool row_reversible = prepared.problem.reversible[row];

      // 1. Local classification.
      auto cls = classify_row(shard, row);

      // 2. Gather ALL ranks' positive columns (replicated for pairing).
      std::vector<Column> local_positives;
      local_positives.reserve(cls.positive.size());
      for (std::uint32_t j : cls.positive) local_positives.push_back(shard[j]);
      std::vector<Column> all_positives;
      {
        ScopedPhase phase(stats.phases, Phase::kCommunicate);
        auto batches =
            comm.all_gather(mpsim::encode_columns(local_positives));
        for (auto& batch : batches) {
          auto incoming = mpsim::decode_columns<Scalar, Support>(batch);
          all_positives.insert(all_positives.end(),
                               std::make_move_iterator(incoming.begin()),
                               std::make_move_iterator(incoming.end()));
        }
      }

      // 3. Pair the full positive set against LOCAL negatives; across
      // ranks this covers every pos x neg pair exactly once.
      std::vector<Column> pairing;
      pairing.reserve(all_positives.size() + cls.negative.size());
      RowClassification pairing_cls;
      for (auto& column : all_positives) {
        pairing_cls.positive.push_back(
            static_cast<std::uint32_t>(pairing.size()));
        pairing.push_back(std::move(column));
      }
      for (std::uint32_t j : cls.negative) {
        pairing_cls.negative.push_back(
            static_cast<std::uint32_t>(pairing.size()));
        pairing.push_back(shard[j]);
      }
      // Existing-duplicate suppression needs the local zero columns.
      for (std::uint32_t j : cls.zero) {
        pairing_cls.zero.push_back(
            static_cast<std::uint32_t>(pairing.size()));
        pairing.push_back(shard[j]);
      }
      iteration.positives = pairing_cls.positive.size();
      iteration.negatives = pairing_cls.negative.size();

      // Every candidate support lives inside supp(u) u supp(v) \ {row}
      // for some pairing pair, so the pairing set stages the iteration.
      oracle.begin_iteration(pairing, pairing_cls, row, row_reversible);
      std::vector<Column> accepted;
      process_pair_range(pairing, row, pairing_cls,
                         basis.stoichiometry_rank, 0,
                         pairing_cls.pair_count(),
                         solver_options.block_ref_cap, is_elementary,
                         iteration, stats.phases, accepted);
      oracle.drain(iteration);

      // 4. Global dedup by candidate supports: a candidate produced on two
      // ranks (same support) is kept only by the lowest rank.  Duplicates
      // against other ranks' ZERO columns are caught the same way: each
      // rank contributes its zero-column supports tagged as "existing".
      {
        ScopedPhase phase(stats.phases, Phase::kCommunicate);
        // Encode accepted supports + local zero supports into one batch.
        std::vector<Column> support_probe;
        support_probe.reserve(accepted.size());
        for (const auto& column : accepted) {
          Column probe;
          probe.support = column.support;
          support_probe.push_back(std::move(probe));
        }
        auto batches = comm.all_gather(mpsim::encode_columns(support_probe));
        ScopedPhase merge_phase(stats.phases, Phase::kMerge);
        std::vector<Support> earlier;  // supports owned by LOWER ranks
        for (int r = 0; r < rank; ++r) {
          auto incoming = mpsim::decode_columns<Scalar, Support>(
              batches[static_cast<std::size_t>(r)]);
          for (auto& column : incoming)
            earlier.push_back(std::move(column.support));
        }
        std::sort(earlier.begin(), earlier.end());
        std::size_t kept = 0;
        for (std::size_t c = 0; c < accepted.size(); ++c) {
          if (std::binary_search(earlier.begin(), earlier.end(),
                                 accepted[c].support)) {
            ++iteration.duplicates_removed;
            continue;
          }
          if (kept != c) accepted[kept] = std::move(accepted[c]);
          ++kept;
        }
        accepted.resize(kept);
      }
      iteration.accepted = accepted.size();

      // 5. Rebuild the local shard: zero + positive + (negative if
      // reversible) + locally accepted candidates.
      std::vector<Column> next;
      next.reserve(cls.zero.size() + cls.positive.size() +
                   (row_reversible ? cls.negative.size() : 0) +
                   accepted.size());
      for (std::uint32_t j : cls.zero) next.push_back(std::move(shard[j]));
      for (std::uint32_t j : cls.positive)
        next.push_back(std::move(shard[j]));
      if (row_reversible) {
        for (std::uint32_t j : cls.negative)
          next.push_back(std::move(shard[j]));
      }
      for (auto& column : accepted) next.push_back(std::move(column));
      shard = std::move(next);

      // 6. Rebalance: even out shard sizes (heaviest ranks ship columns to
      // the lightest; implemented as a gather of sizes + deterministic
      // transfer plan executed with point-to-point messages).
      {
        ScopedPhase phase(stats.phases, Phase::kCommunicate);
        const std::uint64_t total = comm.all_reduce_sum(shard.size());
        iteration.columns_after = total;  // the global matrix width
        const std::uint64_t target = total / num_ranks;
        // Deterministic plan known to every rank: sizes via gather.
        mpsim::Payload size_payload;
        mpsim::detail::put_u64(size_payload, shard.size());
        auto size_batches = comm.all_gather(std::move(size_payload));
        std::vector<std::int64_t> sizes(num_ranks);
        for (int r = 0; r < num_ranks; ++r) {
          const std::uint8_t* cursor = size_batches[r].data();
          sizes[r] = static_cast<std::int64_t>(mpsim::detail::get_u64(
              cursor, cursor + size_batches[r].size()));
        }
        // Greedy plan: (from, to, count) triples.
        struct Move {
          int from;
          int to;
          std::int64_t count;
        };
        std::vector<Move> plan;
        for (int from = 0; from < num_ranks; ++from) {
          while (sizes[from] >
                 checked_add(static_cast<std::int64_t>(target), 1)) {
            int to = 0;
            for (int r = 1; r < num_ranks; ++r)
              if (sizes[r] < sizes[to]) to = r;
            std::int64_t surplus =
                sizes[from] - static_cast<std::int64_t>(target);
            std::int64_t deficit =
                static_cast<std::int64_t>(target) - sizes[to];
            std::int64_t count = std::min(surplus, std::max<std::int64_t>(
                                                       deficit, 1));
            if (count <= 0 || to == from) break;
            plan.push_back(Move{from, to, count});
            sizes[from] -= count;
            sizes[to] += count;
          }
        }
        for (const auto& move : plan) {
          if (move.from == rank) {
            std::vector<Column> shipped;
            for (std::int64_t moved = 0; moved < move.count; ++moved) {
              shipped.push_back(std::move(shard.back()));
              shard.pop_back();
            }
            comm.send(move.to, /*tag=*/1000 + static_cast<int>(row),
                      mpsim::encode_columns(shipped));
          } else if (move.to == rank) {
            auto incoming = mpsim::decode_columns<Scalar, Support>(
                comm.recv(move.from, 1000 + static_cast<int>(row)));
            for (auto& column : incoming) shard.push_back(std::move(column));
          }
        }
      }

      const std::size_t shard_bytes = matrix_storage_bytes(shard);
      const std::size_t replica_bytes = matrix_storage_bytes(all_positives);
      stats.peak_matrix_bytes =
          std::max(stats.peak_matrix_bytes, shard_bytes + replica_bytes);
      comm.set_memory_usage(shard_bytes + replica_bytes);
      stats.absorb(iteration);
      publish_iteration_metrics(iteration);
      if (rank == 0) obs::trace_counter("shard columns", shard.size());
      if (options.solver.on_iteration && rank == 0)
        options.solver.on_iteration(iteration);
    }

    // Gather all shards to rank 0 for the final result.
    auto batches = comm.all_gather(mpsim::encode_columns(shard));
    if (rank == 0) {
      std::vector<Column> gathered;
      for (const auto& batch : batches) {
        auto incoming = mpsim::decode_columns<Scalar, Support>(batch);
        gathered.insert(gathered.end(),
                        std::make_move_iterator(incoming.begin()),
                        std::make_move_iterator(incoming.end()));
      }
      // Rank 0 is the only writer; run_ranks joins every thread before
      // the spawner reads it.  analyze:shared-ok
      final_columns = unsplit_columns(std::move(gathered), prepared);
    }
  };

  mpsim::RunOptions run_options;
  run_options.memory_budget_per_rank = options.memory_budget_per_rank;
  run_options.fault_plan = options.fault_plan;
  auto report = mpsim::run_ranks(num_ranks, body, run_options);

  PartitionedSolveResult<Scalar, Support> result;
  ELMO_CHECK(final_columns.has_value(), "rank 0 produced no result");
  result.columns = std::move(*final_columns);
  result.ranks = std::move(report);
  result.stats = SolveStats::reduce_ranks(rank_stats);
  result.peak_rank_bytes = result.stats.peak_matrix_bytes;
  result.per_rank = std::move(rank_stats);
  return result;
}

}  // namespace elmo
