// Algorithm 3 (combined divide-and-conquer x combinatorial parallel)
// validation: the paper's §III.A worked example, disjointness of subsets,
// exact agreement with Algorithm 1, adaptive re-splitting under a memory
// budget, and the subset scheduler (concurrent subsets, subset-id order,
// schedule-independent counts, one commit per subset).
#include "core/combined.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>

#include "compress/compression.hpp"
#include "core/api.hpp"
#include "core/checkpoint.hpp"
#include "efm_test_util.hpp"
#include "models/ecoli_core.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "mpsim/fault.hpp"
#include "nullspace/efm.hpp"

namespace elmo {
namespace {

CombinedOptions toy_partition_r6r_r8r() {
  CombinedOptions options;
  options.partition_reactions = {"r6r", "r8r"};
  options.num_ranks = 2;
  return options;
}

TEST(CombinedSolver, ToyPartitionMatchesPaperSectionIIIA) {
  // §III.A partitions the toy network across {r6r, r8r}: each of the four
  // zero/nonzero patterns holds exactly two EFMs.
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto result = solve_combined<CheckedI64, Bitset64>(
      problem, toy_partition_r6r_r8r());

  ASSERT_EQ(result.subsets.size(), 4u);
  for (const auto& subset : result.subsets)
    EXPECT_EQ(subset.num_efms, 2u) << subset.label;
  EXPECT_EQ(result.columns.size(), 8u);
}

TEST(CombinedSolver, ToyUnionEqualsSerialResult) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset64>(problem).columns, compressed, net);
  auto combined = solve_combined<CheckedI64, Bitset64>(
      problem, toy_partition_r6r_r8r());
  EXPECT_EQ(expand_and_canonicalize(combined.columns, compressed, net),
            serial);
  // Matches the paper's Eq (7) as well.
  EXPECT_EQ(expand_and_canonicalize(combined.columns, compressed, net),
            canonical_modes_from_i64(models::toy_efms_paper(),
                                     net.reversibility()));
}

TEST(CombinedSolver, SubsetsAreDisjoint) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto result = solve_combined<CheckedI64, Bitset64>(
      problem, toy_partition_r6r_r8r());
  // Union size equals the sum of subset sizes: no EFM in two subsets.
  std::size_t sum = 0;
  for (const auto& subset : result.subsets) sum += subset.num_efms;
  EXPECT_EQ(sum, result.columns.size());
}

TEST(CombinedSolver, SinglePartitionReaction) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  CombinedOptions options;
  options.partition_reactions = {"r8r"};
  options.num_ranks = 1;
  auto result = solve_combined<CheckedI64, Bitset64>(problem, options);
  ASSERT_EQ(result.subsets.size(), 2u);
  // r8r == 0 in 4 of the paper's 8 modes (columns 5-8 of Eq (7)).
  EXPECT_EQ(result.subsets[0].num_efms + result.subsets[1].num_efms, 8u);
  EXPECT_EQ(result.columns.size(), 8u);
}

TEST(CombinedSolver, AutomaticPartitionSelection) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset64>(problem).columns, compressed, net);
  CombinedOptions options;
  options.qsub = 2;  // auto-select the two trailing reversible reactions
  options.num_ranks = 2;
  auto result = solve_combined<CheckedI64, Bitset64>(problem, options);
  EXPECT_EQ(result.subsets.size(), 4u);
  EXPECT_EQ(expand_and_canonicalize(result.columns, compressed, net),
            serial);
}

TEST(CombinedSolver, IrreversiblePartitionReactionRejected) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  CombinedOptions options;
  options.partition_reactions = {"r2"};  // irreversible
  EXPECT_THROW((solve_combined<CheckedI64, Bitset64>(problem, options)),
               InvalidArgumentError);
}

TEST(CombinedSolver, ZeroRanksRejected) {
  auto problem = to_problem<CheckedI64>(compress(models::toy_network()));
  CombinedOptions options = toy_partition_r6r_r8r();
  options.num_ranks = 0;
  EXPECT_THROW((solve_combined<CheckedI64, Bitset64>(problem, options)),
               InvalidArgumentError);
}

TEST(CombinedSolver, CandidateCountDropsVersusUnsplit) {
  // §IV.A: divide-and-conquer usually lowers the cumulative number of
  // intermediate candidates (159.6e9 -> 81.7e9 on Network I).  The toy
  // network is too small to show it meaningfully, so use a random network
  // large enough to have real candidate traffic and check the counter
  // plumbing: the combined run reports its cumulative pairs and they are
  // comparable to (not wildly above) the serial count.
  models::RandomNetworkSpec spec;
  spec.seed = 5;
  spec.num_metabolites = 8;
  spec.num_extra_reactions = 6;
  spec.num_exchanges = 4;
  Network net = models::random_network(spec);
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = solve_efms<CheckedI64, Bitset64>(problem);

  CombinedOptions options;
  options.qsub = 1;
  options.num_ranks = 1;
  auto combined = solve_combined<CheckedI64, Bitset64>(problem, options);
  EXPECT_EQ(expand_and_canonicalize(combined.columns, compressed, net),
            expand_and_canonicalize(serial.columns, compressed, net));
  EXPECT_GT(combined.total.total_pairs_probed, 0u);
}

TEST(CombinedSolver, RandomNetworksAgreeWithSerial) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomNetworkSpec spec;
    spec.seed = seed * 13 + 1;
    spec.num_metabolites = 5 + seed % 3;
    spec.num_extra_reactions = 4;
    spec.num_exchanges = 3;
    spec.reversible_probability = 0.5;  // ensure partition candidates exist
    Network net = models::random_network(spec);
    auto compressed = compress(net);
    auto problem = to_problem<CheckedI64>(compressed);

    // Count trailing reversible reactions; skip networks without any.
    std::size_t reversible = 0;
    for (bool r : problem.reversible) reversible += r ? 1 : 0;
    if (reversible < 1) continue;

    auto serial = expand_and_canonicalize(
        solve_efms<CheckedI64, Bitset64>(problem).columns, compressed, net);
    CombinedOptions options;
    options.num_ranks = 2;
    options.qsub = 1;
    try {
      auto combined = solve_combined<CheckedI64, Bitset64>(problem, options);
      EXPECT_EQ(expand_and_canonicalize(combined.columns, compressed, net),
                serial)
          << "seed " << spec.seed;
    } catch (const InvalidArgumentError&) {
      // Network had no trailing reversible reaction to partition on.
    }
  }
}

TEST(CombinedSolver, AdaptiveResplitUnderMemoryBudget) {
  // Force a budget small enough that unsplit subsets fail but fine ones
  // succeed; with re-splitting enabled the run must complete and agree.
  models::RandomNetworkSpec spec;
  spec.seed = 8;
  spec.num_metabolites = 7;
  spec.num_extra_reactions = 5;
  spec.num_exchanges = 4;
  spec.reversible_probability = 0.6;
  Network net = models::random_network(spec);
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = solve_efms<CheckedI64, Bitset64>(problem);
  auto serial_modes =
      expand_and_canonicalize(serial.columns, compressed, net);

  // A budget below the serial peak but above what fine subsets need.
  CombinedOptions options;
  options.qsub = 1;
  options.num_ranks = 1;
  options.memory_budget_per_rank = serial.stats.peak_matrix_bytes * 9 / 10;
  options.max_extra_splits = 3;
  auto combined = solve_combined<CheckedI64, Bitset64>(problem, options);
  EXPECT_EQ(expand_and_canonicalize(combined.columns, compressed, net),
            serial_modes);
  // Without re-splitting the same budget must fail (sanity check that the
  // budget actually binds) OR already fit; only assert when it binds.
  bool resplit_happened = false;
  for (const auto& subset : combined.subsets)
    resplit_happened = resplit_happened || subset.extra_splits > 0;
  if (resplit_happened) {
    CombinedOptions no_resplit = options;
    no_resplit.max_extra_splits = 0;
    EXPECT_THROW(
        (solve_combined<CheckedI64, Bitset64>(problem, no_resplit)),
        MemoryBudgetError);
  }
}

// ---------------------------------------------------------------------------
// The subset scheduler.

/// Rendezvous in the iteration observer, which runs on rank 0 of each
/// subset's world: each thread's first iteration waits until `want`
/// threads are inside at once, or until one minute passes.  A driver that
/// ran subsets one after another never gets two inside (and fails after
/// the waits) — the verdict does not depend on timing.
class InFlightProbe {
 public:
  explicit InFlightProbe(std::size_t want) : want_(want) {}

  void on_iteration() {
    std::unique_lock lock(mutex_);
    if (!seen_.insert(std::this_thread::get_id()).second) return;
    peak_ = std::max(peak_, ++inside_);
    reached_.notify_all();
    reached_.wait_for(lock, std::chrono::minutes(1),
                      [&] { return peak_ >= want_; });
    --inside_;
  }
  [[nodiscard]] std::size_t peak() {
    std::lock_guard lock(mutex_);
    return peak_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable reached_;
  std::set<std::thread::id> seen_;
  std::size_t want_;
  std::size_t inside_ = 0;
  std::size_t peak_ = 0;
};

TEST(CombinedScheduler, FourSubsetsOnFourRanksRunConcurrently) {
  InFlightProbe probe(2);
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 4;
  options.qsub = 2;
  options.on_iteration = [&probe](const IterationStats&) {
    probe.on_iteration();
  };
  auto result = compute_efms(models::ecoli_core(), options);
  EXPECT_EQ(result.subsets.size(), 4u);
  EXPECT_GE(probe.peak(), 2u);
}

TEST(CombinedScheduler, FlowRanksFoldByRunWideRank) {
  // Four one-rank subsets at once: each world is rank 0 of its own, but
  // they ran on four different ranks, and the flow section keeps them
  // apart.
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 4;
  options.qsub = 2;
  const EfmResult result = compute_efms(models::ecoli_core(), options);
  ASSERT_EQ(result.subsets.size(), 4u);
  const obs::SolveReport report = make_solve_report(result, options, "ecoli");
  ASSERT_EQ(report.flow.ranks.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(report.flow.ranks[r].rank, static_cast<int>(r));
    EXPECT_GT(report.flow.ranks[r].busy_us, 0.0) << "rank " << r;
  }
}

/// The counts every schedule shares.  With one-rank groups each subset is
/// solved exactly as on one rank, so the rank tests and duplicates match
/// too; a wider group dedups across ranks only after its rank tests.
void expect_same_counts(const SolveStats& got, const SolveStats& want,
                        bool one_rank_groups, const std::string& where) {
  EXPECT_EQ(got.total_pairs_probed, want.total_pairs_probed) << where;
  EXPECT_EQ(got.total_pretest_survivors, want.total_pretest_survivors)
      << where;
  EXPECT_EQ(got.total_accepted, want.total_accepted) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(got.peak_columns, want.peak_columns) << where;
  if (one_rank_groups) {
    EXPECT_EQ(got.total_rank_tests, want.total_rank_tests) << where;
    EXPECT_EQ(got.total_duplicates_removed, want.total_duplicates_removed)
        << where;
  }
}

/// Subset i's label marks partition reaction k nonzero ("name:+") exactly
/// when bit k of i is set.
void expect_subset_id_order(const std::vector<SubsetSummary>& subsets,
                            const std::string& where) {
  for (std::size_t id = 0; id < subsets.size(); ++id) {
    std::size_t k = 0;
    std::size_t pos = 0;
    const std::string& label = subsets[id].label;
    while ((pos = label.find(':', pos)) != std::string::npos) {
      const bool nonzero = label.compare(pos, 2, ":+") == 0;
      EXPECT_EQ(nonzero, ((id >> k) & 1) != 0)
          << where << ": subset " << id << " is " << label;
      ++pos;
      ++k;
    }
  }
}

TEST(CombinedScheduler, EveryScheduleGivesTheOneRankResult) {
  std::vector<std::pair<std::string, Network>> networks;
  networks.emplace_back("ecoli", models::ecoli_core());
  for (std::uint64_t seed : {10u, 16u}) {
    models::RandomNetworkSpec spec;
    spec.seed = seed;
    spec.num_metabolites = 8;
    spec.num_extra_reactions = 8;
    spec.num_exchanges = 4;
    spec.reversible_probability = 0.4;
    networks.emplace_back("random seed " + std::to_string(seed),
                          models::random_network(spec));
  }
  for (const auto& [name, net] : networks) {
    EfmOptions options;
    options.algorithm = Algorithm::kCombined;
    options.qsub = 2;
    options.num_ranks = 1;
    const EfmResult reference = compute_efms(net, options);
    ASSERT_EQ(reference.subsets.size(), 4u) << name;
    ASSERT_GT(reference.num_modes(), 0u) << name;
    expect_subset_id_order(reference.subsets, name + " on 1 rank");
    // 4 ranks: four one-rank groups at once; 8 ranks: four two-rank
    // groups.  On 2 and 3 ranks a later subset gets two ranks when it
    // finds two free, which depends on timing.
    for (int ranks : {2, 3, 4, 8}) {
      const std::string where = name + " on " + std::to_string(ranks);
      options.num_ranks = ranks;
      const EfmResult result = compute_efms(net, options);
      EXPECT_EQ(result.modes, reference.modes) << where;
      ASSERT_EQ(result.subsets.size(), 4u) << where;
      expect_subset_id_order(result.subsets, where);
      bool one_rank_groups = true;
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(result.subsets[i].label, reference.subsets[i].label);
        EXPECT_EQ(result.subsets[i].num_efms, reference.subsets[i].num_efms)
            << where;
        const std::size_t group = result.subsets[i].ranks.size();
        if (ranks >= 4) {
          EXPECT_EQ(group, ranks == 8 ? 2u : 1u) << where;
        }
        one_rank_groups = one_rank_groups && group == 1;
      }
      expect_same_counts(result.stats, reference.stats, one_rank_groups,
                         where);
    }
  }
}

TEST(CombinedScheduler, OneCommitAndOneRecordPerSubset) {
  const std::string path = ::testing::TempDir() + "elmo_sched_commits.bin";
  std::remove(path.c_str());
  const auto caller = std::this_thread::get_id();
  std::multiset<std::string> notified;
  std::size_t off_thread = 0;
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 4;
  options.qsub = 3;
  options.checkpoint_path = path;
  options.on_subset = [&](const std::string& label, std::size_t, double) {
    if (std::this_thread::get_id() != caller) ++off_thread;
    notified.insert(label);
  };
  const EfmResult result = compute_efms(models::ecoli_core(), options);
  ASSERT_EQ(result.subsets.size(), 8u);
  EXPECT_EQ(off_thread, 0u) << "on_subset must run on the calling thread";
  EXPECT_EQ(notified.size(), 8u);
  for (const auto& subset : result.subsets)
    EXPECT_EQ(notified.count(subset.label), 1u) << subset.label;
  const auto records = load_checkpoint(path);
  EXPECT_EQ(records.size(), 8u);
  std::set<std::vector<std::pair<std::uint64_t, bool>>> patterns;
  for (const auto& record : records) patterns.insert(record.pattern);
  EXPECT_EQ(patterns.size(), 8u);
  std::remove(path.c_str());
}

TEST(CombinedScheduler, CrashWithoutRetryKeepsCommittedSubsets) {
  // Four one-rank subsets on two ranks, the first crash fatal: the subset
  // running beside the crashed one still finishes and commits, and the
  // resumed run is bit-identical.
  Network net = models::ecoli_core();
  const std::string path = ::testing::TempDir() + "elmo_sched_crash.bin";
  std::remove(path.c_str());
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 2;
  options.qsub = 2;
  const EfmResult baseline = compute_efms(net, options);

  EfmOptions crashing = options;
  crashing.checkpoint_path = path;
  crashing.fault_plan = std::make_shared<mpsim::FaultPlan>();
  crashing.fault_plan->crash_rank(0, /*at_op=*/5, /*times=*/1);
  EXPECT_THROW(compute_efms(net, crashing), mpsim::InjectedFaultError);
  const auto committed = load_checkpoint(path);
  ASSERT_GE(committed.size(), 1u);
  ASSERT_LT(committed.size(), 4u);

  EfmOptions resume = options;
  resume.resume_from = path;
  resume.checkpoint_path = path;
  const EfmResult resumed = compute_efms(net, resume);
  EXPECT_EQ(resumed.modes, baseline.modes);
  std::size_t from_checkpoint = 0;
  for (const auto& subset : resumed.subsets)
    from_checkpoint += subset.resumed ? 1 : 0;
  EXPECT_EQ(from_checkpoint, committed.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace elmo
