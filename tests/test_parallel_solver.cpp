// Algorithm 2 (combinatorial parallel Nullspace Algorithm) validation:
// exact agreement with Algorithm 1 for every rank count, candidate-count
// conservation, and the memory-budget failure mode.
#include "core/combinatorial_parallel.hpp"

#include <gtest/gtest.h>

#include "compress/compression.hpp"
#include "efm_test_util.hpp"
#include "models/ecoli_core.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "nullspace/efm.hpp"

namespace elmo {
namespace {

TEST(ParallelSolver, SingleRankMatchesSerialExactly) {
  // One rank runs Algorithm 1's iterations through Algorithm 2's driver:
  // the mode set and every ledger total must match the serial solver's.
  for (const Network& net : {models::toy_network(), models::ecoli_core()}) {
    auto compressed = compress(net);
    auto problem = to_problem<CheckedI64>(compressed);
    auto serial = solve_efms<CheckedI64, DynBitset>(problem);
    ParallelOptions options;
    options.num_ranks = 1;
    auto parallel =
        solve_combinatorial_parallel<CheckedI64, DynBitset>(problem, options);
    EXPECT_EQ(expand_and_canonicalize(serial.columns, compressed, net),
              expand_and_canonicalize(parallel.columns, compressed, net));
    EXPECT_EQ(solve_totals(parallel.stats), solve_totals(serial.stats));
    EXPECT_GT(parallel.stats.total_rank_warmstart_reuses, 0u);
    EXPECT_EQ(parallel.stats.peak_columns, serial.stats.peak_columns);
    EXPECT_EQ(parallel.stats.iterations, serial.stats.iterations);
  }
}

class RankCountTest : public ::testing::TestWithParam<int> {};

TEST_P(RankCountTest, ToyAgreesWithSerial) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset64>(problem).columns, compressed, net);

  ParallelOptions options;
  options.num_ranks = GetParam();
  auto parallel =
      solve_combinatorial_parallel<CheckedI64, Bitset64>(problem, options);
  EXPECT_EQ(expand_and_canonicalize(parallel.columns, compressed, net),
            serial);
}

TEST_P(RankCountTest, PairCountIndependentOfRanks) {
  // The paper's "total # candidate modes" is invariant: the pair space is
  // partitioned, never changed (Table II shows one number for all core
  // counts).
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = solve_efms<CheckedI64, Bitset64>(problem);
  ParallelOptions options;
  options.num_ranks = GetParam();
  auto parallel =
      solve_combinatorial_parallel<CheckedI64, Bitset64>(problem, options);
  EXPECT_EQ(parallel.stats.total_pairs_probed,
            serial.stats.total_pairs_probed);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankCountTest, ::testing::Values(1, 2, 3, 4, 7, 16));

TEST(ParallelSolver, RandomNetworksMatchExhaustiveOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    models::RandomNetworkSpec spec;
    spec.seed = seed;
    spec.num_metabolites = 4 + seed % 4;
    spec.num_extra_reactions = 3 + seed % 3;
    Network net = models::random_network(spec);
    auto compressed = compress(net);
    auto problem = to_problem<CheckedI64>(compressed);
    const auto truth = exhaustive_efms(net);
    EXPECT_EQ(expand_and_canonicalize(
                  solve_efms<CheckedI64, Bitset64>(problem).columns,
                  compressed, net),
              truth)
        << "seed " << seed << " serial";
    ParallelOptions options;
    options.num_ranks = 3;
    auto parallel =
        solve_combinatorial_parallel<CheckedI64, Bitset64>(problem, options);
    EXPECT_EQ(expand_and_canonicalize(parallel.columns, compressed, net),
              truth)
        << "seed " << seed << " 3 ranks";
    expect_totals_are_rank_sums(parallel.stats, parallel.per_rank);
  }
}

TEST(ParallelSolver, ReportsTrafficForMultiRankRuns) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  ParallelOptions options;
  options.num_ranks = 4;
  auto result =
      solve_combinatorial_parallel<CheckedI64, Bitset64>(problem, options);
  // Each iteration all-gathers on 4 ranks; traffic must be visible.
  EXPECT_GT(result.ranks.total_bytes_sent(), 0u);
  EXPECT_EQ(result.ranks.ranks.size(), 4u);
  EXPECT_GT(result.ranks.max_memory_peak(), 0u);
}

TEST(ParallelSolver, MemoryBudgetAbortsLikeNetworkII) {
  // A tiny per-rank budget reproduces the paper's Algorithm-2 failure on
  // Network II: the replicated matrix outgrows a rank's memory mid-run.
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  ParallelOptions options;
  options.num_ranks = 2;
  options.memory_budget_per_rank = 64;  // absurdly small
  EXPECT_THROW((solve_combinatorial_parallel<CheckedI64, Bitset64>(problem,
                                                                   options)),
               MemoryBudgetError);
}

}  // namespace
}  // namespace elmo
