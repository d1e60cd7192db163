// Tests for the hybrid ranks x threads execution mode (Blue Gene/P SMP /
// dual modes): results and counters must be identical to flat execution.
#include <gtest/gtest.h>

#include "compress/compression.hpp"
#include "core/api.hpp"
#include "core/combinatorial_parallel.hpp"
#include "efm_test_util.hpp"
#include "models/ecoli_core.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "models/yeast.hpp"

namespace elmo {
namespace {

TEST(Hybrid, ToyAgreesAcrossThreadCounts) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset64>(problem).columns, compressed, net);
  for (int threads : {1, 2, 4}) {
    ParallelOptions options;
    options.num_ranks = 2;
    options.threads_per_rank = threads;
    auto result =
        solve_combinatorial_parallel<CheckedI64, Bitset64>(problem, options);
    EXPECT_EQ(expand_and_canonicalize(result.columns, compressed, net),
              serial)
        << "threads " << threads;
  }
}

TEST(Hybrid, PairCountConservedAcrossSmpModes) {
  // Table II's "# nodes x cores per node" configurations: 1x4, 4x4, 2x8 —
  // total candidates must never change.
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = solve_efms<CheckedI64, Bitset64>(problem);
  for (auto [ranks, threads] :
       {std::pair{1, 4}, std::pair{4, 4}, std::pair{2, 8}}) {
    ParallelOptions options;
    options.num_ranks = ranks;
    options.threads_per_rank = threads;
    auto result =
        solve_combinatorial_parallel<CheckedI64, Bitset64>(problem, options);
    EXPECT_EQ(result.stats.total_pairs_probed,
              serial.stats.total_pairs_probed)
        << ranks << "x" << threads;
    EXPECT_EQ(result.stats.total_accepted, serial.stats.total_accepted);
  }
}

/// Every SMP worker of a rank offers to the iteration's one support table,
/// so the rank tests, the duplicates and the result must not depend on the
/// worker count: Algorithm 2 at one and four ranks, Algorithm 3 with
/// qsub 2 on four ranks, at 1, 2 and 4 threads per rank.
void expect_worker_count_invariant(const Network& net,
                                   const std::string& name) {
  struct Run {
    const char* label;
    Algorithm algorithm;
    int ranks;
  };
  for (const Run run : {Run{"alg2 x1", Algorithm::kCombinatorialParallel, 1},
                        Run{"alg2 x4", Algorithm::kCombinatorialParallel, 4},
                        Run{"alg3 x4", Algorithm::kCombined, 4}}) {
    EfmOptions options;
    options.algorithm = run.algorithm;
    options.num_ranks = run.ranks;
    options.qsub = 2;
    auto one = compute_efms(net, options);
    for (int threads : {2, 4}) {
      options.threads_per_rank = threads;
      auto many = compute_efms(net, options);
      const std::string where = name + " " + run.label + " threads " +
                                std::to_string(threads);
      EXPECT_EQ(many.stats.total_rank_tests, one.stats.total_rank_tests)
          << where;
      EXPECT_EQ(many.stats.total_duplicates_removed,
                one.stats.total_duplicates_removed)
          << where;
      EXPECT_EQ(many.stats.total_accepted, one.stats.total_accepted) << where;
      EXPECT_EQ(many.modes, one.modes) << where;
    }
  }
}

TEST(Hybrid, WorkerCountDoesNotMoveRankTests) {
  expect_worker_count_invariant(models::toy_network(), "toy");
  expect_worker_count_invariant(models::ecoli_core(), "ecoli");
}

TEST(Hybrid, RandomNetworksAgree) {
  for (std::uint64_t seed = 30; seed < 38; ++seed) {
    models::RandomNetworkSpec spec;
    spec.seed = seed;
    spec.num_metabolites = 5 + seed % 3;
    spec.num_extra_reactions = 4;
    Network net = models::random_network(spec);
    auto compressed = compress(net);
    auto problem = to_problem<CheckedI64>(compressed);
    auto serial = expand_and_canonicalize(
        solve_efms<CheckedI64, Bitset64>(problem).columns, compressed, net);
    ParallelOptions options;
    options.num_ranks = 2;
    options.threads_per_rank = 3;
    auto result =
        solve_combinatorial_parallel<CheckedI64, Bitset64>(problem, options);
    EXPECT_EQ(expand_and_canonicalize(result.columns, compressed, net),
              serial)
        << "seed " << seed;
    expect_worker_count_invariant(net, "seed " + std::to_string(seed));
  }
}

TEST(Hybrid, YeastDemoAgrees) {
  Network net = models::yeast_network_1();
  std::vector<ReactionId> trim;
  for (const char* name : {"R15", "R33", "R41", "R46", "R92r", "R98", "R100",
                           "R77", "R101", "R32r", "R30r"}) {
    if (auto id = net.find_reaction(name)) trim.push_back(*id);
  }
  net = net.without_reactions(trim);
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  ParallelOptions flat;
  flat.num_ranks = 4;
  auto a =
      solve_combinatorial_parallel<CheckedI64, DynBitset>(problem, flat);
  ParallelOptions hybrid;
  hybrid.num_ranks = 2;
  hybrid.threads_per_rank = 2;
  auto b =
      solve_combinatorial_parallel<CheckedI64, DynBitset>(problem, hybrid);
  EXPECT_EQ(expand_and_canonicalize(a.columns, compressed, net),
            expand_and_canonicalize(b.columns, compressed, net));
  EXPECT_EQ(a.stats.total_pairs_probed, b.stats.total_pairs_probed);
}

}  // namespace
}  // namespace elmo
