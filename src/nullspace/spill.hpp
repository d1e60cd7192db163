// Out-of-core candidate generation: the chunked drive loop the governed
// solvers use under memory pressure, spilling to a resource::SpillFile.
//
// Under governor pressure (or in spill-always degrade mode) an iteration's
// candidate generation runs in engine-index chunks; each chunk's accepted
// columns are serialized into a checksummed spill block and dropped from
// memory, then every block streams back for the merge pass.  Cross-chunk
// duplicate supports survive until the final sort_and_dedup — exactly the
// mechanism Algorithm 2 already uses to dedup across ranks, so the final
// column set is identical to the in-memory path (equal-support candidates
// are value-identical, see iteration.hpp).
//
// A spill block is the column codec's body (put_columns,
// nullspace/flux_column.hpp: supports and values, the same bytes an mpsim
// message carries before its CRC tail) inside one SpillFile frame.
#pragma once

#include <vector>

#include "nullspace/flux_column.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/pairgen.hpp"
#include "nullspace/stats.hpp"
#include "resource/governor.hpp"
#include "resource/spill.hpp"
#include "support/timer.hpp"

namespace elmo {

/// How the governed solvers spill.  Off by default; `always` is the
/// degrade-ladder rung that forces every chunk out-of-core.
struct SpillPolicy {
  bool enabled = false;   // spill when the governor signals pressure
  bool always = false;    // spill unconditionally (degrade rung / tests)
  std::string directory;  // "" = system temp directory
  /// Accepted-candidate bytes held in memory before a block is flushed.
  std::size_t block_bytes = std::size_t{64} << 20;

  [[nodiscard]] bool active() const { return enabled || always; }
};

/// process_pair_range with out-of-core accepted candidates: runs the engine
/// range in chunks, spilling each chunk's accepted columns, then streams
/// every block back into `accepted_out` and removes cross-chunk duplicate
/// supports.  `stats.accepted` is corrected so it counts the columns
/// actually delivered, exactly as the in-memory path would.  Returns the
/// body bytes spilled.
template <typename Scalar, typename Support, typename TestFn>
std::uint64_t process_pair_range_spilled(
    const std::vector<FluxColumn<Scalar, Support>>& columns, std::size_t row,
    const RowClassification& cls, std::size_t rank, std::uint64_t begin,
    std::uint64_t end, std::size_t ref_cap, const TestFn& is_elementary,
    IterationStats& stats, PhaseTimer& phases,
    std::vector<FluxColumn<Scalar, Support>>& accepted_out,
    const SpillPolicy& policy) {
  if (cls.positive.empty() || cls.negative.empty() || begin >= end) {
    stats.pairs_probed += (begin < end) ? end - begin : 0;
    return 0;
  }
  const auto tables = [&] {
    ScopedPhase phase(phases, Phase::kGenCand);
    return PairGenTables<Scalar, Support>(columns, row, cls.positive,
                                          cls.negative, cls.zero, rank);
  }();

  resource::SpillFile spill(policy.directory);
  resource::MemoryLease candidate_lease(resource::Subsystem::kCandidates);
  std::vector<FluxColumn<Scalar, Support>> chunk_accepted;

  // Spill decisions happen at chunk granularity, so chunks are
  // deliberately finer than the tile cap.  Under a governor limit they
  // shrink further: the ledger can overshoot the flush threshold by at
  // most one chunk's acceptances, so fine chunks are what turn the
  // threshold into an actual bound.  The per-chunk engine setup is one
  // cursor seek (the tables are shared), cheap enough for 512-pair steps.
  const auto& governor = resource::MemoryGovernor::global();
  const std::uint64_t chunk_pairs =
      governor.enabled()
          ? std::max<std::uint64_t>(std::uint64_t{1} << 9, ref_cap / 512)
          : std::max<std::uint64_t>(std::uint64_t{1} << 16, ref_cap / 32);
  std::size_t resident_bytes = 0;
  for (std::uint64_t at = begin; at < end; at += chunk_pairs) {
    const std::uint64_t stop = std::min<std::uint64_t>(end, at + chunk_pairs);
    process_pair_range(columns, row, cls, rank, at, stop, ref_cap,
                       is_elementary, stats, phases, chunk_accepted, &tables);
    resident_bytes = matrix_storage_bytes(chunk_accepted);
    candidate_lease.set(resident_bytes);
    // Flush threshold: the configured block size, tightened under a
    // governor limit so the resident chunk never eats more than half of
    // whatever headroom the rest of the process (matrix replicas, sibling
    // ranks) has left under --mem-limit.
    std::size_t flush_bytes = policy.block_bytes;
    if (governor.enabled()) {
      const std::size_t others =
          governor.usage() - std::min(governor.usage(), resident_bytes);
      const std::size_t headroom =
          governor.limit() - std::min(governor.limit(), others);
      flush_bytes = std::min(
          flush_bytes, std::max<std::size_t>(std::size_t{4} << 10,
                                             headroom / 2));
    }
    if (!chunk_accepted.empty() &&
        (policy.always || resident_bytes >= flush_bytes)) {
      ScopedPhase phase(phases, Phase::kMerge);
      std::vector<std::uint8_t> body;
      put_columns(body, chunk_accepted);
      // Free the columns before the frame copy is made.
      chunk_accepted.clear();
      chunk_accepted.shrink_to_fit();
      candidate_lease.set(0);
      resident_bytes = 0;
      spill.append_block(body);
    }
  }

  {
    // Stream every spilled block back and fold in the resident tail, then
    // drop cross-chunk duplicate supports (the paper's
    // Sort&RemoveDuplicates, as used across Algorithm 2's ranks).
    ScopedPhase phase(phases, Phase::kMerge);
    std::vector<FluxColumn<Scalar, Support>> merged;
    spill.for_each_block([&](std::vector<std::uint8_t>&& body) {
      get_columns<Scalar, Support>(body, merged);
    });
    for (auto& column : chunk_accepted) merged.push_back(std::move(column));
    chunk_accepted.clear();
    const std::size_t before = merged.size();
    sort_and_dedup(merged, stats);
    // accepted counted every chunk's acceptances, including cross-chunk
    // duplicates the dedup just removed; settle it to the delivered count.
    stats.accepted -= before - merged.size();
    candidate_lease.set(matrix_storage_bytes(merged));
    accepted_out.reserve(accepted_out.size() + merged.size());
    for (auto& column : merged) accepted_out.push_back(std::move(column));
  }
  return spill.bytes_spilled();
}

}  // namespace elmo
