// Cross-algorithm consistency on a real mid-size network (E. coli core,
// 857 EFMs) and on seeded random networks of a few thousand EFMs: all four
// algorithms, audited, several configurations, one answer.
#include <gtest/gtest.h>

#include "core/api.hpp"
#include "efm_test_util.hpp"
#include "models/ecoli_core.hpp"
#include "models/random_network.hpp"

namespace elmo {
namespace {

const EfmResult& reference() {
  static const EfmResult result = compute_efms(models::ecoli_core());
  return result;
}

TEST(CrossAlgorithm, ReferenceSatisfiesInvariants) {
  Network net = models::ecoli_core();
  EXPECT_EQ(reference().num_modes(), 857u);
  check_efm_invariants(net, reference().modes);
}

TEST(CrossAlgorithm, DriverGridMatches) {
  // Every driver decides elementarity with the same engine; each driver,
  // audited, must reproduce the reference set.
  struct Driver {
    const char* name;
    Algorithm algorithm;
    int ranks;
    int threads;
  };
  const Driver drivers[] = {
      {"serial", Algorithm::kSerial, 1, 1},
      {"alg2 3 ranks", Algorithm::kCombinatorialParallel, 3, 1},
      {"alg2 2x2 smp", Algorithm::kCombinatorialParallel, 2, 2},
      {"alg4 3 ranks", Algorithm::kPartitioned, 3, 1},
      {"combined", Algorithm::kCombined, 2, 1},
  };
  for (const Driver& driver : drivers) {
    EfmOptions options;
    options.algorithm = driver.algorithm;
    options.num_ranks = driver.ranks;
    options.threads_per_rank = driver.threads;
    options.audit = true;
    EXPECT_EQ(compute_efms(models::ecoli_core(), options).modes,
              reference().modes)
        << driver.name;
  }
}

// Non-toy regression grid.  On these seeds a support-subset elementarity
// test once kept a few non-elementary modes (e.g. 240 instead of 238 at
// seed 1) while the audit, which samples at most 256 columns for support
// minimality, stayed silent.  So the serial result is held to the
// exhaustive invariant battery and its pinned count, and every driver,
// audited, must reproduce it exactly.
struct ReproducerCase {
  std::uint64_t seed;
  std::size_t modes;
};

class ReproducerGrid : public ::testing::TestWithParam<ReproducerCase> {};

TEST_P(ReproducerGrid, EveryDriverMatchesSerial) {
  models::RandomNetworkSpec spec;
  spec.num_metabolites = 8;
  spec.num_extra_reactions = 8;
  spec.num_exchanges = 4;
  spec.reversible_probability = 0.4;
  spec.seed = GetParam().seed;
  const Network net = models::random_network(spec);
  const EfmResult serial = compute_efms(net);
  ASSERT_EQ(serial.num_modes(), GetParam().modes);
  check_efm_invariants(net, serial.modes);

  const std::pair<const char*, Algorithm> drivers[] = {
      {"serial", Algorithm::kSerial},
      {"alg2", Algorithm::kCombinatorialParallel},
      {"alg4", Algorithm::kPartitioned},
      {"combined", Algorithm::kCombined},
  };
  for (const auto& [name, algorithm] : drivers) {
    EfmOptions options;
    options.algorithm = algorithm;
    options.num_ranks = algorithm == Algorithm::kSerial ? 1 : 2;
    options.audit = true;
    EXPECT_EQ(compute_efms(net, options).modes, serial.modes) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReproducerGrid,
                         ::testing::Values(ReproducerCase{1, 238},
                                           ReproducerCase{10, 1919},
                                           ReproducerCase{11, 2294},
                                           ReproducerCase{13, 4057},
                                           ReproducerCase{16, 1567},
                                           ReproducerCase{21, 1488}),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

TEST(CrossAlgorithm, CombinedMatchesAcrossQsub) {
  for (std::size_t qsub : {1u, 2u, 3u}) {
    EfmOptions options;
    options.algorithm = Algorithm::kCombined;
    options.num_ranks = 2;
    options.qsub = qsub;
    auto result = compute_efms(models::ecoli_core(), options);
    EXPECT_EQ(result.modes, reference().modes) << "qsub " << qsub;
    EXPECT_EQ(result.subsets.size(), std::size_t{1} << qsub);
  }
}

TEST(CrossAlgorithm, BigIntKernelMatches) {
  EfmOptions options;
  options.force_bigint = true;
  auto result = compute_efms(models::ecoli_core(), options);
  EXPECT_EQ(result.modes, reference().modes);
}

TEST(CrossAlgorithm, OrderingVariantsMatch) {
  for (bool nnz : {false, true}) {
    for (bool rev_last : {false, true}) {
      EfmOptions options;
      options.ordering.sort_by_nonzeros = nnz;
      options.ordering.reversible_last = rev_last;
      auto result = compute_efms(models::ecoli_core(), options);
      EXPECT_EQ(result.modes, reference().modes)
          << "nnz=" << nnz << " rev_last=" << rev_last;
    }
  }
}

TEST(CrossAlgorithm, CompressionVariantsMatch) {
  // Disabling individual compression passes must never change the answer.
  for (int variant = 0; variant < 4; ++variant) {
    EfmOptions options;
    options.compression.couple_two_reaction_metabolites = variant & 1;
    options.compression.kernel_coupling = variant & 2;
    auto result = compute_efms(models::ecoli_core(), options);
    EXPECT_EQ(result.modes, reference().modes) << "variant " << variant;
  }
}

}  // namespace
}  // namespace elmo
