// Cross-algorithm consistency on a real mid-size network (E. coli core,
// 857 EFMs): all four algorithms, every rank-test backend, several
// configurations, one answer.
#include <gtest/gtest.h>

#include "core/api.hpp"
#include "efm_test_util.hpp"
#include "models/ecoli_core.hpp"

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

TEST(CrossAlgorithm, DriverBackendGridMatches) {
  // Every driver constructs the same elementarity oracle; each (driver,
  // backend) cell, and the combinatorial test on the drivers that accept
  // it, must reproduce the reference set.
  struct Driver {
    const char* name;
    Algorithm algorithm;
    int ranks;
    int threads;
    bool combinatorial;  // also run the support-subset test
  };
  const Driver drivers[] = {
      {"serial", Algorithm::kSerial, 1, 1, true},
      {"alg2 3 ranks", Algorithm::kCombinatorialParallel, 3, 1, true},
      {"alg2 2x2 smp", Algorithm::kCombinatorialParallel, 2, 2, true},
      {"alg4 3 ranks", Algorithm::kPartitioned, 3, 1, false},
      {"combined", Algorithm::kCombined, 2, 1, false},
  };
  for (const Driver& driver : drivers) {
    EfmOptions options;
    options.algorithm = driver.algorithm;
    options.num_ranks = driver.ranks;
    options.threads_per_rank = driver.threads;
    for (auto backend : {RankTestBackend::kSparse, RankTestBackend::kModular,
                         RankTestBackend::kExact}) {
      options.rank_backend = backend;
      auto result = compute_efms(models::ecoli_core(), options);
      EXPECT_EQ(result.modes, reference().modes)
          << driver.name << " backend " << static_cast<int>(backend);
    }
    if (driver.combinatorial) {
      options.test = ElementarityTest::kCombinatorial;
      auto result = compute_efms(models::ecoli_core(), options);
      EXPECT_EQ(result.modes, reference().modes)
          << driver.name << " combinatorial test";
    }
  }
}

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
