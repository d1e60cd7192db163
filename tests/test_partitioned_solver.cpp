// Algorithm 4 (matrix-partitioned parallel Nullspace Algorithm — the
// paper's future-work item #1) validation: exact agreement with Algorithm
// 1, pair-count conservation, and the per-rank memory reduction that
// motivates the design.
#include "core/partitioned_parallel.hpp"

#include <gtest/gtest.h>

#include "check/check.hpp"
#include "compress/compression.hpp"
#include "core/combinatorial_parallel.hpp"
#include "efm_test_util.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "models/yeast.hpp"
#include "nullspace/efm.hpp"
#include "resource/shutdown.hpp"

namespace elmo {
namespace {

template <typename Support>
std::vector<std::vector<BigInt>> canonical(
    const std::vector<FluxColumn<CheckedI64, Support>>& columns,
    const CompressedProblem& compressed, const Network& net) {
  return expand_and_canonicalize(columns, compressed, net);
}

TEST(PartitionedSolver, ToyAgreesWithSerialAcrossRankCounts) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = canonical(
      solve_efms<CheckedI64, Bitset64>(problem).columns, compressed, net);
  for (int ranks : {1, 2, 3, 5, 8}) {
    ParallelOptions options;
    options.num_ranks = ranks;
    auto result =
        solve_partitioned_parallel<CheckedI64, Bitset64>(problem, options);
    // The partitioned algorithm can keep a duplicate column when a
    // candidate coincides with a zero column on another rank; canonical
    // form dedups, the SET must match exactly.
    EXPECT_EQ(canonical(result.columns, compressed, net), serial)
        << "ranks " << ranks;
  }
}

TEST(PartitionedSolver, PairCountMatchesSerial) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = solve_efms<CheckedI64, Bitset64>(problem);
  ParallelOptions options;
  options.num_ranks = 3;
  auto result =
      solve_partitioned_parallel<CheckedI64, Bitset64>(problem, options);
  // The pos x neg cross product is covered exactly once across ranks
  // (duplicated intermediate columns could inflate this on larger nets;
  // the toy has none).
  EXPECT_EQ(result.stats.total_pairs_probed,
            serial.stats.total_pairs_probed);
  expect_totals_are_rank_sums(result.stats, result.per_rank);
  EXPECT_EQ(result.stats.peak_columns, serial.stats.peak_columns);
}

TEST(PartitionedSolver, RandomNetworksMatchExhaustiveOracle) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomNetworkSpec spec;
    spec.seed = seed * 7 + 2;
    spec.num_metabolites = 4 + seed % 4;
    spec.num_extra_reactions = 3 + seed % 3;
    Network net = models::random_network(spec);
    auto compressed = compress(net);
    auto problem = to_problem<CheckedI64>(compressed);
    ParallelOptions options;
    options.num_ranks = 3;
    auto result =
        solve_partitioned_parallel<CheckedI64, Bitset64>(problem, options);
    EXPECT_EQ(canonical(result.columns, compressed, net),
              exhaustive_efms(net))
        << "seed " << spec.seed;
    expect_totals_are_rank_sums(result.stats, result.per_rank);
  }
}

TEST(PartitionedSolver, ShardsStayBalanced) {
  // After every iteration the rebalancing step keeps shard sizes within a
  // small band; verify via the final gathered result being complete and
  // the per-rank peak being well below the full-matrix peak on a workload
  // with enough columns to matter.
  models::RandomNetworkSpec spec;
  spec.seed = 11;
  spec.num_metabolites = 8;
  spec.num_extra_reactions = 6;
  spec.num_exchanges = 4;
  Network net = models::random_network(spec);
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);

  ParallelOptions replicated_options;
  replicated_options.num_ranks = 4;
  auto replicated = solve_combinatorial_parallel<CheckedI64, Bitset64>(
      problem, replicated_options);

  ParallelOptions options;
  options.num_ranks = 4;
  auto partitioned =
      solve_partitioned_parallel<CheckedI64, Bitset64>(problem, options);

  EXPECT_EQ(canonical(partitioned.columns, compressed, net),
            canonical(replicated.columns, compressed, net));
  ASSERT_GT(replicated.stats.peak_columns, 100u)
      << "workload too small for a meaningful memory comparison";
  // The shard + replicated-positives peak must be well below the full
  // replica (4 ranks -> expect roughly a 2x+ reduction here).
  EXPECT_LT(partitioned.ranks.max_memory_peak(),
            replicated.stats.peak_matrix_bytes * 3 / 4);
}

TEST(PartitionedSolver, YeastDemoAgreesWithReplicated) {
  Network net = models::yeast_network_1();
  std::vector<ReactionId> trim;
  for (const char* name :
       {"R15", "R33", "R41", "R46", "R92r", "R98", "R100", "R77", "R101",
        "R32r", "R30r"}) {
    if (auto id = net.find_reaction(name)) trim.push_back(*id);
  }
  net = net.without_reactions(trim);
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);

  auto serial = solve_efms<CheckedI64, DynBitset>(problem);
  ParallelOptions options;
  options.num_ranks = 3;
  auto result =
      solve_partitioned_parallel<CheckedI64, DynBitset>(problem, options);
  EXPECT_EQ(canonical(result.columns, compressed, net),
            canonical(serial.columns, compressed, net));
}

TEST(PartitionedSolver, MemoryBudgetStillEnforced) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  ParallelOptions options;
  options.num_ranks = 2;
  options.memory_budget_per_rank = 16;  // absurdly small
  EXPECT_THROW((solve_partitioned_parallel<CheckedI64, Bitset64>(problem,
                                                                 options)),
               MemoryBudgetError);
}

TEST(PartitionedSolver, SmpWorkersRejected) {
  // Algorithm 4 has no SMP worker path: asking for one is an error, not a
  // silently single-threaded run.
  auto problem = to_problem<CheckedI64>(compress(models::toy_network()));
  ParallelOptions smp;
  smp.threads_per_rank = 2;
  EXPECT_THROW((solve_partitioned_parallel<CheckedI64, Bitset64>(problem,
                                                                 smp)),
               InvalidArgumentError);
}

// Algorithm 4 opens and closes every iteration through the serial solver's
// IterationFrame, so it audits, records history and honours shutdown like
// every other driver.
TEST(PartitionedSolver, AuditsEveryInvariantClass) {
  auto problem = to_problem<CheckedI64>(compress(models::toy_network()));
  check::AuditLedger::global().reset();
  ParallelOptions options;
  options.num_ranks = 2;
  options.solver.audit = true;
  auto result =
      solve_partitioned_parallel<CheckedI64, Bitset64>(problem, options);
  const auto audit = check::AuditLedger::global().snapshot();
  EXPECT_GT(audit.nullspace_products, 0u);
  EXPECT_GT(audit.rank_nullity_checks, 0u);
  EXPECT_GT(audit.minimality_checks, 0u);
  EXPECT_EQ(audit.failures, 0u);
  EXPECT_FALSE(result.columns.empty());
}

TEST(PartitionedSolver, RecordsOneHistoryRowPerIteration) {
  auto problem = to_problem<CheckedI64>(compress(models::toy_network()));
  ParallelOptions options;
  options.num_ranks = 2;
  options.solver.record_history = true;
  auto result =
      solve_partitioned_parallel<CheckedI64, Bitset64>(problem, options);
  ASSERT_GT(result.stats.iterations, 0u);
  EXPECT_EQ(result.stats.history.size(), result.stats.iterations);
  // Rows follow the serial processing order and carry the global matrix
  // width, not rank 0's shard.
  SolverOptions serial_options;
  serial_options.record_history = true;
  auto serial = solve_efms<CheckedI64, Bitset64>(problem, serial_options);
  ASSERT_EQ(result.stats.history.size(), serial.stats.history.size());
  for (std::size_t k = 0; k < serial.stats.history.size(); ++k)
    EXPECT_EQ(result.stats.history[k].row, serial.stats.history[k].row);
  EXPECT_GE(result.stats.history.back().columns_after, result.columns.size());
}

TEST(PartitionedSolver, ShutdownRequestCancels) {
  auto problem = to_problem<CheckedI64>(compress(models::toy_network()));
  ParallelOptions options;
  options.num_ranks = 2;
  resource::reset_shutdown();
  resource::request_shutdown();
  EXPECT_THROW((solve_partitioned_parallel<CheckedI64, Bitset64>(problem,
                                                                 options)),
               CancelledError);
  resource::reset_shutdown();
  EXPECT_NO_THROW((solve_partitioned_parallel<CheckedI64, Bitset64>(
      problem, options)));
}

}  // namespace
}  // namespace elmo
