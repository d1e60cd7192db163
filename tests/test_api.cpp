// End-to-end tests of the public compute_efms API.
#include "core/api.hpp"

#include <gtest/gtest.h>

#include "efm_test_util.hpp"
#include "io/efm_writer.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "nullspace/efm.hpp"

namespace elmo {
namespace {

TEST(Api, ToyNetworkSerial) {
  Network net = models::toy_network();
  auto result = compute_efms(net);
  EXPECT_EQ(result.num_modes(), 8u);
  EXPECT_EQ(result.reaction_names.size(), 9u);
  EXPECT_EQ(result.modes, canonical_modes_from_i64(models::toy_efms_paper(),
                                                   net.reversibility()));
  EXPECT_FALSE(result.used_bigint);
  EXPECT_EQ(result.reduced_reactions, 8u);
  EXPECT_EQ(result.reduced_metabolites, 4u);
  EXPECT_GE(result.seconds, 0.0);
}

TEST(Api, ExpandPhaseIsInTheLedger) {
  // Post-processing (to BigInt, expand, canonicalise) is timed into the
  // phase ledger, and the ledger never claims more than the run took.
  Network net = models::toy_network();
  auto result = compute_efms(net);
  const auto totals = result.stats.phases.totals();
  ASSERT_EQ(totals.count(phase_name(Phase::kExpand)), 1u);
  double sum = 0.0;
  for (const auto& [name, seconds] : totals) sum += seconds;
  EXPECT_LE(sum, result.seconds);
  const auto report = make_solve_report(result, EfmOptions{}, "toy");
  EXPECT_EQ(report.phase_seconds.count("expand"), 1u);
}

TEST(Api, AllThreeAlgorithmsAgree) {
  Network net = models::toy_network();
  EfmOptions serial;
  auto a = compute_efms(net, serial);

  EfmOptions parallel;
  parallel.algorithm = Algorithm::kCombinatorialParallel;
  parallel.num_ranks = 3;
  auto b = compute_efms(net, parallel);

  EfmOptions combined;
  combined.algorithm = Algorithm::kCombined;
  combined.num_ranks = 2;
  combined.partition_reactions = {"r6r", "r8r"};
  auto c = compute_efms(net, combined);

  EfmOptions partitioned;
  partitioned.algorithm = Algorithm::kPartitioned;
  partitioned.num_ranks = 3;
  auto d = compute_efms(net, partitioned);

  EXPECT_EQ(a.modes, b.modes);
  EXPECT_EQ(a.modes, c.modes);
  EXPECT_EQ(a.modes, d.modes);
  EXPECT_EQ(c.subsets.size(), 4u);
  EXPECT_GT(b.message_bytes, 0u);
  EXPECT_GT(d.message_bytes, 0u);
}

TEST(Api, ForceBigIntGivesSameModes) {
  Network net = models::toy_network();
  EfmOptions options;
  options.force_bigint = true;
  auto result = compute_efms(net, options);
  EXPECT_TRUE(result.used_bigint);
  EXPECT_EQ(result.modes, compute_efms(net).modes);
}

TEST(Api, PartitionOnMergedReactionWorksViaRepresentative) {
  // r9 merges into r3 during compression; partitioning on r9 must resolve
  // to the representative's reduced column.  r3 is irreversible though, so
  // this must throw the reversibility requirement - which proves the name
  // mapping went through compression correctly.
  Network net = models::toy_network();
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.partition_reactions = {"r9"};
  EXPECT_THROW(compute_efms(net, options), InvalidArgumentError);
}

TEST(Api, PartitionOnRemovedReactionThrows) {
  // A dead-end reaction is removed by compression entirely.
  Network net = models::toy_network();
  net.add_metabolite("Orphan");
  net.add_reaction("dead", true, {{"A", -1}, {"Orphan", 1}});
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.partition_reactions = {"dead"};
  EXPECT_THROW(compute_efms(net, options), InvalidArgumentError);
}

TEST(Api, OverflowTriggersTransparentBigIntFallback) {
  // A chain of pairwise-coprime ~3e6 coefficients whose primitive kernel
  // vector has entries ~2.7e19 > 2^63.  The E/F cofactor pair keeps every
  // column's gcd at 1 so compression cannot rescale the primes away.
  Network net;
  for (const char* m : {"A", "B", "C", "E", "F"}) net.add_metabolite(m);
  net.add_metabolite("Xext", true);
  net.add_metabolite("Yext", true);
  net.add_reaction("r1", false,
                   {{"Xext", -1}, {"E", -1}, {"A", 3000017}, {"F", 1}});
  net.add_reaction("r2", false, {{"A", -3000029}, {"B", 3000047}});
  net.add_reaction("r3", false, {{"B", -3000061}, {"C", 3000073}});
  net.add_reaction("r4", false, {{"C", -3000083}, {"Yext", 1}});
  net.add_reaction("r5", false, {{"F", -1}, {"E", 1}});

  EfmOptions options;
  options.compression.kernel_coupling = false;  // keep the big numbers
  options.compression.couple_two_reaction_metabolites = false;
  auto result = compute_efms(net, options);
  EXPECT_TRUE(result.used_bigint);
  EXPECT_TRUE(result.stats.bigint_fallback);
  check_efm_invariants(net, result.modes);
  // The exact same modes come out when BigInt is forced from the start.
  EfmOptions forced = options;
  forced.force_bigint = true;
  EXPECT_EQ(result.modes, compute_efms(net, forced).modes);
}

TEST(Api, MemoryBudgetPropagates) {
  Network net = models::toy_network();
  EfmOptions options;
  options.algorithm = Algorithm::kCombinatorialParallel;
  options.num_ranks = 2;
  options.memory_budget_per_rank = 32;
  EXPECT_THROW(compute_efms(net, options), MemoryBudgetError);
}

TEST(Api, HybridThreadsThroughApi) {
  Network net = models::toy_network();
  EfmOptions options;
  options.algorithm = Algorithm::kCombinatorialParallel;
  options.num_ranks = 2;
  options.threads_per_rank = 2;
  auto result = compute_efms(net, options);
  EXPECT_EQ(result.modes, compute_efms(net).modes);
}

TEST(Api, OnIterationCallbackFires) {
  Network net = models::toy_network();
  EfmOptions options;
  int iterations = 0;
  options.on_iteration = [&](const IterationStats&) { ++iterations; };
  compute_efms(net, options);
  EXPECT_EQ(iterations, 4);  // the paper's four processed rows
}

TEST(Api, RandomNetworksSatisfyInvariantsThroughApi) {
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    models::RandomNetworkSpec spec;
    spec.seed = seed;
    spec.num_metabolites = 5 + seed % 3;
    Network net = models::random_network(spec);
    auto result = compute_efms(net);
    check_efm_invariants(net, result.modes);
  }
}

TEST(Api, WritersRenderResults) {
  Network net = models::toy_network();
  auto result = compute_efms(net);
  auto text = efms_to_text(result.modes, result.reaction_names);
  auto csv = efms_to_csv(result.modes, result.reaction_names);
  // 9 reaction rows in the text form; 1 header + 8 mode rows in CSV.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 9);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 9);
  EXPECT_NE(text.find("r6r"), std::string::npos);
  EXPECT_NE(csv.find("r8r"), std::string::npos);
}

}  // namespace
}  // namespace elmo
