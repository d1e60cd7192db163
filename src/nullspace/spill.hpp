// Out-of-core candidate generation: the chunked drive loop the governed
// solvers use under memory pressure, spilling to a resource::SpillFile.
//
// Under governor pressure (or in spill-always degrade mode) an iteration's
// candidate generation runs in engine-index chunks; each chunk's accepted
// columns are serialized into a checksummed spill block and dropped from
// memory, then every block streams back for the merge pass.  Every chunk
// offers its refs to the iteration's one SupportTable (iteration.hpp),
// which keeps the accepted supports resident: a support is delivered
// once, in its first chunk, so the blocks never repeat a support and the
// merge pass is a sort.  The final column set and its order equal the
// in-memory path's.  So do the counts, unless the table had to drop
// rejected supports to stay inside its share of the headroom: a dropped
// support offered again is rank-tested again.
//
// A spill block is the column codec's body (put_columns,
// nullspace/flux_column.hpp: supports and values, the same bytes an mpsim
// message carries before its CRC tail) inside one SpillFile frame.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "nullspace/flux_column.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/stats.hpp"
#include "resource/governor.hpp"
#include "resource/spill.hpp"
#include "support/timer.hpp"

namespace elmo {

/// Accepted-candidate bytes held in memory before a spill block is flushed.
inline constexpr std::size_t kSpillBlockBytes = std::size_t{64} << 20;

/// How the governed solvers spill.  Off by default; `always` is the
/// degrade-ladder rung that forces every chunk out-of-core.
struct SpillPolicy {
  bool enabled = false;   // spill when the governor signals pressure
  bool always = false;    // spill unconditionally (degrade rung / tests)
  std::string directory;  // "" = system temp directory

  [[nodiscard]] bool active() const { return enabled || always; }
};

/// Offer engine range [begin, end) to `table` in chunks, spilling each
/// chunk's accepted columns, then stream every block back into
/// `accepted_out` in support order.  The table dedups across chunks, so
/// the blocks hold distinct supports and need only a sort.  Returns the
/// body bytes spilled.
template <typename Scalar, typename Support, typename TestFn>
std::uint64_t process_pair_range_spilled(
    SupportTable<Scalar, Support>& table, std::uint64_t begin,
    std::uint64_t end, std::size_t ref_cap, const TestFn& is_elementary,
    IterationStats& stats, PhaseTimer& phases,
    std::vector<FluxColumn<Scalar, Support>>& accepted_out,
    const SpillPolicy& policy) {
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
    // Under a governor limit, the headroom is what --mem-limit leaves
    // after everything but the table and the resident chunk (matrix
    // replicas, sibling ranks).  The table may fill half of it before it
    // drops rejected supports; the resident chunk is flushed at half of
    // what the table leaves.
    std::size_t headroom = std::numeric_limits<std::size_t>::max();
    if (governor.enabled()) {
      const std::size_t own = table.bytes() + resident_bytes;
      const std::size_t others =
          governor.usage() - std::min(governor.usage(), own);
      headroom = governor.limit() - std::min(governor.limit(), others);
    }
    table.offer(at, stop, is_elementary, stats, phases, headroom / 2);
    table.deliver(is_elementary, stats, phases, chunk_accepted);
    resident_bytes = matrix_storage_bytes(chunk_accepted);
    candidate_lease.set(resident_bytes);
    const std::size_t flush_bytes = std::min(
        kSpillBlockBytes,
        std::max<std::size_t>(std::size_t{4} << 10,
                              (headroom - std::min(headroom, table.bytes())) /
                                  2));
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
    // Stream every spilled block back and fold in the resident tail.
    // Each chunk was delivered in support order; one sort restores it
    // across chunks.
    ScopedPhase phase(phases, Phase::kMerge);
    std::vector<FluxColumn<Scalar, Support>> merged;
    spill.for_each_block([&](std::vector<std::uint8_t>&& body) {
      get_columns<Scalar, Support>(body, merged);
    });
    for (auto& column : chunk_accepted) merged.push_back(std::move(column));
    chunk_accepted.clear();
    std::sort(merged.begin(), merged.end());
    candidate_lease.set(matrix_storage_bytes(merged));
    accepted_out.reserve(accepted_out.size() + merged.size());
    for (auto& column : merged) accepted_out.push_back(std::move(column));
  }
  return spill.bytes_spilled();
}

}  // namespace elmo
