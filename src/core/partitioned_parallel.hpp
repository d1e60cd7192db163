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
//
// Bookkeeping: the steps above are this driver's own data movement; around
// them every iteration opens and closes through solve_nullspace's
// IterationFrame (nullspace/solver.hpp) — the shutdown check, --mem-limit
// residency (each rank charges its shard plus the positive replica), the
// trace span, the audits, the stats ledger, the metrics and the observer.
// History rows (rank 0's) carry the GLOBAL columns_after but rank 0's own
// counters: positives, negatives and pairs_probed are its pairing, accepted
// and duplicates_removed its share of the world's.  The options and result
// types are Algorithm 2's; threads_per_rank must be 1.
#pragma once

#include <iterator>
#include <vector>

#include "bigint/checked.hpp"
#include "core/combinatorial_parallel.hpp"
#include "mpsim/communicator.hpp"
#include "mpsim/serialize.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "nullspace/sparse_rank.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/bytes.hpp"
#include "support/timer.hpp"

namespace elmo {

template <typename Scalar, typename Support>
ParallelSolveResult<Scalar, Support> solve_partitioned_parallel(
    const EfmProblem<Scalar>& problem, const ParallelOptions& options) {
  using Column = FluxColumn<Scalar, Support>;
  const int num_ranks = options.num_ranks;
  ELMO_REQUIRE(options.threads_per_rank <= 1,
               "the partitioned algorithm runs one worker per rank");

  auto rank_solve = [&](mpsim::Communicator& comm,
                        const EfmProblem<Scalar>& prepared,
                        const SolverOptions& solver_options) {
    const int rank = comm.rank();
    SolveResult<Scalar, Support> result;
    SolveStats& stats = result.stats;
    auto basis = compute_initial_basis<Scalar, Support>(
        prepared, solver_options.ordering, solver_options.exclude_rows);
    SparseRankTester<Scalar> tester(prepared.stoichiometry, basis.columns);
    auto is_elementary = [&tester](const Support& support) {
      return tester.is_elementary(support);
    };

    // Shard the initial basis round-robin.
    std::vector<Column> shard;
    for (std::size_t c = 0; c < basis.columns.size(); ++c) {
      if (static_cast<int>(c % num_ranks) == rank)
        shard.push_back(std::move(basis.columns[c]));
    }
    IterationFrame<Scalar, Support> frame(
        prepared.stoichiometry, solver_options, stats, rank == 0,
        [&comm](std::size_t bytes) { comm.set_memory_usage(bytes); });
    frame.start(basis.columns.size(), matrix_storage_bytes(shard));

    for (std::size_t row : basis.processing_order) {
      const obs::TraceSpan span = frame.open(row);
      IterationStats iteration;
      iteration.row = row;

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
      // ranks this covers every pos x neg pair exactly once.  The local
      // zero columns ride along for existing-duplicate suppression.
      std::vector<Column> pairing;
      pairing.reserve(all_positives.size() + cls.negative.size() +
                      cls.zero.size());
      std::move(all_positives.begin(), all_positives.end(),
                std::back_inserter(pairing));
      for (std::uint32_t j : cls.negative) pairing.push_back(shard[j]);
      for (std::uint32_t j : cls.zero) pairing.push_back(shard[j]);
      const auto pairing_cls = classify_row(pairing, row);
      iteration.positives = pairing_cls.positive.size();
      iteration.negatives = pairing_cls.negative.size();

      // Every candidate support lives inside supp(u) u supp(v) \ {row}
      // for some pairing pair, so the pairing set stages the iteration.
      tester.begin_iteration(iteration_common_zero_rows(
          pairing, pairing_cls.positive, pairing_cls.negative, row));
      std::vector<Column> accepted;
      process_pair_range(pairing, row, pairing_cls,
                         basis.stoichiometry_rank, 0,
                         pairing_cls.pair_count(),
                         solver_options.block_ref_cap, is_elementary,
                         iteration, stats.phases, accepted);
      tester.drain_stats(iteration);
      frame.audit_accepted(accepted, row);

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
      shard = merge_next(std::move(shard), cls, prepared.reversible[row],
                         std::move(accepted));

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
        put_u64(size_payload, shard.size());
        auto size_batches = comm.all_gather(std::move(size_payload));
        std::vector<std::int64_t> sizes(num_ranks);
        for (int r = 0; r < num_ranks; ++r) {
          const std::uint8_t* cursor = size_batches[r].data();
          sizes[r] = static_cast<std::int64_t>(
              get_u64(cursor, cursor + size_batches[r].size()));
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

      frame.close(iteration, shard,
                  matrix_storage_bytes(shard) +
                      matrix_storage_bytes(all_positives));
    }

    // Gather all shards to rank 0 for the final result.
    auto batches = comm.all_gather(mpsim::encode_columns(shard));
    if (rank == 0) {
      for (const auto& batch : batches) {
        auto incoming = mpsim::decode_columns<Scalar, Support>(batch);
        result.columns.insert(result.columns.end(),
                              std::make_move_iterator(incoming.begin()),
                              std::make_move_iterator(incoming.end()));
      }
      frame.finish(result.columns);
    }
    return result;
  };
  return run_world<Scalar, Support>(problem, options, rank_solve);
}

}  // namespace elmo
