// Seeded workload generator.
//
// Everything the library sees in a benchmark run comes from here:
//
//  * network text — S. cerevisiae Network I with a knockout set removed,
//    with the terms inside each reaction side shuffled by the seed.  The
//    parser numbers metabolites by first use, so the shuffle permutes the
//    metabolite (row) order while leaving reaction order, and with it the
//    nullspace iteration order and every candidate count, unchanged.
//    Reaction order is deliberately NOT shuffled: it moves the candidate
//    count by up to 3x and the solve time by more than 10%.
//  * the query stream of the efm_queries workload — analysis calls in
//    blocks of 100 holding a fixed count of each kind, shuffled within
//    the block, so every run sees the same mix whatever its length.  The
//    seed picks the order, the knockout pairs of surviving-mode queries
//    and where the round-robin over targets starts; the decompose input is
//    the same for every seed (see kDecomposeModes).
//
// Same seed, same inputs (std::mt19937_64 and a hand-rolled shuffle, so
// the output does not depend on the standard library's distributions).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Knockouts of the solve instance (60,197 EFMs).
const std::vector<std::string>& solve_knockouts();
/// Knockouts of the query instance (24,339 EFMs; the paper-table demo set).
const std::vector<std::string>& query_knockouts();

/// Network I reaction-list text without `knockouts`, terms shuffled by
/// `seed`.
std::string network_text(const std::vector<std::string>& knockouts,
                         std::uint64_t seed);

enum class QueryKind { kSurviving, kCutSets, kYield, kScreen, kDecompose };
inline constexpr int kNumQueryKinds = 5;
const char* query_kind_name(QueryKind kind);

struct Query {
  QueryKind kind = QueryKind::kSurviving;
  /// Reaction names: the two knockouts (kSurviving), the target (kCutSets,
  /// kScreen) or substrate then product (kYield).
  std::vector<std::string> reactions;
  /// kDecompose: the measured flux is sum weight * mode[index].
  std::vector<std::size_t> mode_indices;
  std::vector<std::int64_t> weights;
};

/// Queries per kind in each block of 100 (surviving, cut sets, yield,
/// screen, decompose).  Sorted by latency the kinds run surviving (< 1 ms)
/// << cut sets, yield, screen (ms to tens of ms) << decompose (over 100
/// ms), so p50 falls inside the surviving band (at its 83rd percentile)
/// and p99 in the middle of the decompose band.
inline constexpr int kQueryMix[kNumQueryKinds] = {60, 10, 14, 14, 2};

/// The one decompose input: 3 * mode[721] + 3 * mode[18612] of the sorted
/// query mode set (0.1-0.2 s at max_terms 2).  Decomposition cost varies
/// fivefold with the input and p99 is the middle of the decompose band, so
/// with several inputs p99 would follow whichever of them land mid-band.
inline constexpr std::size_t kDecomposeModes[2] = {721, 18612};
inline constexpr std::int64_t kDecomposeWeights[2] = {3, 3};

/// `count` queries over a network with reactions `reaction_names` and a
/// mode set of `num_modes` modes.
std::vector<Query> query_stream(const std::vector<std::string>& reaction_names,
                                std::size_t num_modes, std::size_t count,
                                std::uint64_t seed);

/// Targets of cut-set and screen queries, and products of yield queries.
const std::vector<std::string>& query_targets();
/// Substrate of yield queries (glucose uptake).
const char* yield_substrate();

}  // namespace perfbench
