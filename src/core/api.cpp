#include "core/api.hpp"

#include "bigint/bigint.hpp"
#include "bigint/checked.hpp"
#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "compress/compression.hpp"
#include "core/combinatorial_parallel.hpp"
#include "core/combined.hpp"
#include "core/estimate.hpp"
#include "core/partitioned_parallel.hpp"
#include "mpsim/communicator.hpp"
#include "network/network.hpp"
#include "nullspace/efm.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/solver.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "resource/governor.hpp"
#include "resource/watchdog.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace elmo {

namespace {

/// Zip mpsim traffic counters with the matching per-rank solver ledgers
/// into report entries (either side may be shorter; missing data stays 0).
/// Entry r is numbered `rank_ids[r]` when given (an Algorithm 3 subset's
/// driver-wide rank ids), else r.
std::vector<obs::RankEntry> make_rank_entries(
    const mpsim::RunReport& report, const std::vector<SolveStats>& rank_stats,
    const std::vector<int>& rank_ids = {}) {
  std::vector<obs::RankEntry> entries;
  const std::size_t n = std::max(report.ranks.size(), rank_stats.size());
  entries.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    obs::RankEntry entry;
    entry.rank = r < rank_ids.size() ? rank_ids[r] : static_cast<int>(r);
    if (r < report.ranks.size()) {
      const auto& counters = report.ranks[r];
      entry.messages_sent = counters.messages_sent;
      entry.messages_received = counters.messages_received;
      entry.bytes_sent = counters.bytes_sent;
      entry.collectives = counters.collectives;
      entry.memory_peak_bytes = counters.memory_peak;
      entry.wait_data_us = counters.wait_data_us;
      entry.wait_barrier_us = counters.wait_barrier_us;
      entry.wait_straggler_us = counters.wait_straggler_us;
      entry.max_queue_depth = counters.max_queue_depth;
    }
    if (r < rank_stats.size()) {
      entry.phase_seconds = rank_stats[r].phases.totals();
      entry.spill_bytes = rank_stats[r].total_spilled_bytes;
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

template <typename Scalar, typename Support>
EfmResult run_with(const CompressedProblem& compressed,
                   const std::vector<bool>& original_reversibility,
                   const EfmOptions& options) {
  EfmResult result;
  Stopwatch watch;
  auto problem = to_problem<Scalar>(compressed);

  SolverOptions solver;
  solver.ordering = options.ordering;
  solver.on_iteration = options.on_iteration;
  solver.record_history = options.record_history;
  solver.audit = options.audit;
  solver.spill = options.spill;
  // A governed run spills by default once the admission check asks for it;
  // an explicit spill.enabled also works without any --mem-limit.
  if (options.mem_limit_bytes > 0) solver.spill.enabled = true;

  // The one place a deadline becomes the watchdog's three thresholds.
  resource::Deadlines deadlines;
  if (options.subset_deadline_seconds > 0) {
    deadlines.soft_seconds = options.subset_deadline_seconds / 2.0;
    deadlines.hard_seconds = options.subset_deadline_seconds;
    deadlines.stall_seconds = options.subset_deadline_seconds;
  }

  std::vector<FluxColumn<Scalar, Support>> columns;
  switch (options.algorithm) {
    case Algorithm::kSerial: {
      auto solved = solve_efms<Scalar, Support>(problem, solver);
      columns = std::move(solved.columns);
      result.stats = std::move(solved.stats);
      break;
    }
    case Algorithm::kCombinatorialParallel:
    case Algorithm::kPartitioned: {
      ParallelOptions parallel;
      parallel.num_ranks = options.num_ranks;
      parallel.threads_per_rank = options.threads_per_rank;
      parallel.solver = solver;
      parallel.memory_budget_per_rank = options.memory_budget_per_rank;
      parallel.fault_plan = options.fault_plan;
      parallel.deadlines = deadlines;
      auto solved =
          options.algorithm == Algorithm::kPartitioned
              ? solve_partitioned_parallel<Scalar, Support>(problem, parallel)
              : solve_combinatorial_parallel<Scalar, Support>(problem,
                                                              parallel);
      columns = std::move(solved.columns);
      result.stats = std::move(solved.stats);
      result.message_bytes = solved.ranks.total_bytes_sent();
      result.peak_rank_memory = solved.ranks.max_memory_peak();
      result.ranks = make_rank_entries(solved.ranks, solved.per_rank);
      break;
    }
    case Algorithm::kCombined: {
      CombinedOptions combined;
      for (std::size_t column :
           partition_columns(compressed, options.partition_reactions))
        combined.partition_reactions.push_back(
            compressed.reaction_names[column]);
      combined.qsub = options.qsub;
      combined.num_ranks = options.num_ranks;
      combined.threads_per_rank = options.threads_per_rank;
      combined.solver = solver;
      combined.memory_budget_per_rank = options.memory_budget_per_rank;
      combined.max_extra_splits = options.max_extra_splits;
      combined.retry = options.retry;
      combined.fault_plan = options.fault_plan;
      combined.checkpoint_path = options.checkpoint_path;
      combined.resume_from = options.resume_from;
      combined.subset_deadlines = deadlines;
      combined.on_subset = options.on_subset;
      // Estimate-based deadline scaling: a cheap prefix-run per subset
      // predicts its cost; combined scales each subset's deadlines relative
      // to the median, and calls this only when a deadline is set.
      // (estimate.hpp includes combined.hpp, so the model is injected here
      // rather than included there.)
      combined.subset_cost_hint = [&problem](const SubsetSpec& spec) {
        EstimateOptions estimate;
        estimate.pair_budget = 200'000;
        estimate.max_columns = 5'000;
        return estimate_subset<Scalar, Support>(problem, spec, estimate)
            .estimated_pairs;
      };
      auto solved = solve_combined<Scalar, Support>(problem, combined);
      columns = std::move(solved.columns);
      result.stats = std::move(solved.total);
      result.total_retries = solved.total_retries;
      result.events = std::move(solved.events);
      for (const auto& subset : solved.subsets) {
        SubsetSummary summary;
        summary.label = subset.label;
        summary.num_efms = subset.num_efms;
        summary.candidate_pairs = subset.stats.total_pairs_probed;
        summary.seconds = subset.seconds;
        summary.gen_cand_seconds =
            subset.stats.phases.seconds(Phase::kGenCand);
        summary.rank_test_seconds =
            subset.stats.phases.seconds(Phase::kRankTest);
        summary.communicate_seconds =
            subset.stats.phases.seconds(Phase::kCommunicate);
        summary.merge_seconds = subset.stats.phases.seconds(Phase::kMerge);
        summary.extra_splits = subset.extra_splits;
        summary.attempts = subset.attempts;
        summary.resumed = subset.resumed;
        summary.ranks = make_rank_entries(subset.ranks, subset.rank_stats,
                                          subset.rank_ids);
        result.subsets.push_back(std::move(summary));
        result.message_bytes += subset.ranks.total_bytes_sent();
        result.peak_rank_memory =
            std::max(result.peak_rank_memory, subset.ranks.max_memory_peak());
      }
      break;
    }
  }

  {
    ScopedPhase phase(result.stats.phases, Phase::kExpand);
    auto reduced_modes = columns_to_bigint(columns);
    result.modes.reserve(reduced_modes.size());
    for (const auto& mode : reduced_modes)
      result.modes.push_back(compressed.expand(mode));
    canonicalize_modes(result.modes, original_reversibility);
  }

  result.reaction_names = compressed.original_reaction_names;
  result.compression_stats = compressed.stats;
  result.reduced_reactions = compressed.num_reactions();
  result.reduced_metabolites = compressed.num_metabolites();
  result.seconds = watch.seconds();
  result.used_bigint = std::is_same_v<Scalar, BigInt>;
  return result;
}

template <typename Scalar>
EfmResult run_with_support(const CompressedProblem& compressed,
                           const std::vector<bool>& original_reversibility,
                           const EfmOptions& options) {
  // The prepared (split) problem can gain one column per reversible
  // reaction in the worst case; size the support type for that bound so a
  // mid-run split never overflows the single-word representation.
  const std::size_t worst_case =
      compressed.num_reactions() +
      static_cast<std::size_t>(std::count(compressed.reversible.begin(),
                                          compressed.reversible.end(), true));
  if (worst_case <= Bitset64::capacity()) {
    return run_with<Scalar, Bitset64>(compressed, original_reversibility,
                                      options);
  }
  return run_with<Scalar, DynBitset>(compressed, original_reversibility,
                                     options);
}

}  // namespace

EfmResult compute_efms(const CompressedProblem& compressed,
                       const std::vector<bool>& original_reversibility,
                       const EfmOptions& options) {
  // Configure the process-wide governor for this solve: fresh ledger, the
  // requested limit.  The spill/peak counters accumulate across an int64 →
  // BigInt fallback (it is one logical computation).
  auto& governor = resource::MemoryGovernor::global();
  governor.reset();
  governor.set_limit(options.mem_limit_bytes);
  auto finish = [&governor](EfmResult result) {
    result.mem_limit_bytes = governor.limit();
    result.mem_peak_bytes = governor.peak_usage();
    result.spill_bytes = governor.spill_bytes();
    result.spill_blocks = governor.spill_blocks();
    return result;
  };
  if (options.force_bigint) {
    return finish(run_with_support<BigInt>(compressed, original_reversibility,
                                           options));
  }
  try {
    return finish(run_with_support<CheckedI64>(compressed,
                                               original_reversibility,
                                               options));
  } catch (const OverflowError&) {
    // Values outgrew 64 bits mid-computation: redo exactly.
    auto result = run_with_support<BigInt>(compressed,
                                           original_reversibility, options);
    result.stats.bigint_fallback = true;
    return finish(std::move(result));
  }
}

EfmResult compute_efms(const Network& network, const EfmOptions& options) {
  auto compressed = compress(network, options.compression);
  return compute_efms(compressed, network.reversibility(), options);
}

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSerial:
      return "serial";
    case Algorithm::kCombinatorialParallel:
      return "parallel";
    case Algorithm::kCombined:
      return "combined";
    case Algorithm::kPartitioned:
      return "partitioned";
  }
  return "unknown";
}

std::vector<std::size_t> partition_columns(
    const CompressedProblem& compressed,
    const std::vector<std::string>& original_names) {
  std::vector<std::size_t> columns;
  columns.reserve(original_names.size());
  for (const auto& name : original_names) {
    auto column = compressed.column_for(name);
    ELMO_REQUIRE(column.has_value(),
                 "partition reaction " + name +
                     " was removed by compression (forced zero flux)");
    columns.push_back(*column);
  }
  return columns;
}

obs::SolveReport make_solve_report(const EfmResult& result,
                                   const EfmOptions& options,
                                   const std::string& network_label) {
  obs::SolveReport report;
  report.network = network_label;
  report.algorithm = algorithm_name(options.algorithm);
  report.num_ranks = options.num_ranks;
  report.config["threads_per_rank"] =
      std::to_string(options.threads_per_rank);
  if (options.algorithm == Algorithm::kCombined) {
    report.config["qsub"] = std::to_string(options.qsub);
    report.config["max_extra_splits"] =
        std::to_string(options.max_extra_splits);
  }
  if (options.memory_budget_per_rank != 0) {
    report.config["memory_budget_per_rank"] =
        std::to_string(options.memory_budget_per_rank);
  }
  if (options.mem_limit_bytes != 0)
    report.config["mem_limit_bytes"] = std::to_string(options.mem_limit_bytes);
  if (!options.checkpoint_path.empty())
    report.config["checkpoint_path"] = options.checkpoint_path;
  if (!options.resume_from.empty())
    report.config["resume_from"] = options.resume_from;
  report.config["used_bigint"] = result.used_bigint ? "true" : "false";
  report.config["reduced_reactions"] =
      std::to_string(result.reduced_reactions);
  report.config["reduced_metabolites"] =
      std::to_string(result.reduced_metabolites);

  report.num_efms = result.num_modes();
  report.seconds = result.seconds;

  const SolveStats& stats = result.stats;
  report.totals["pairs_probed"] = stats.total_pairs_probed;
  report.totals["pretest_survivors"] = stats.total_pretest_survivors;
  report.totals["rank_tests"] = stats.total_rank_tests;
  report.totals["rank_warmstart_reuses"] = stats.total_rank_warmstart_reuses;
  report.totals["rank_gathered_nnz"] = stats.total_rank_gathered_nnz;
  report.totals["accepted"] = stats.total_accepted;
  report.totals["duplicates_removed"] = stats.total_duplicates_removed;
  report.totals["iterations"] = stats.iterations;
  report.totals["message_bytes"] = result.message_bytes;
  report.totals["total_retries"] = result.total_retries;
  report.peak_columns = stats.peak_columns;
  report.peak_matrix_bytes = stats.peak_matrix_bytes;
  report.bigint_fallback = stats.bigint_fallback;
  report.phase_seconds = stats.phases.totals();
  report.ranks = result.ranks;

  for (const auto& subset : result.subsets) {
    obs::SubsetEntry entry;
    entry.label = subset.label;
    entry.num_efms = subset.num_efms;
    entry.seconds = subset.seconds;
    entry.attempts = static_cast<int>(subset.attempts);
    entry.extra_splits = static_cast<int>(subset.extra_splits);
    entry.resumed = subset.resumed;
    entry.totals["candidate_pairs"] = subset.candidate_pairs;
    entry.phase_seconds[phase_name(Phase::kGenCand)] =
        subset.gen_cand_seconds;
    entry.phase_seconds[phase_name(Phase::kRankTest)] =
        subset.rank_test_seconds;
    entry.phase_seconds[phase_name(Phase::kCommunicate)] =
        subset.communicate_seconds;
    entry.phase_seconds[phase_name(Phase::kMerge)] = subset.merge_seconds;
    entry.ranks = subset.ranks;
    report.subsets.push_back(std::move(entry));
  }

  report.iterations.reserve(stats.history.size());
  for (const auto& it : stats.history) {
    obs::IterationEntry entry;
    entry.row = static_cast<std::int64_t>(it.row);
    entry.positives = it.positives;
    entry.negatives = it.negatives;
    entry.pairs_probed = it.pairs_probed;
    entry.pretest_survivors = it.pretest_survivors;
    entry.duplicates_removed = it.duplicates_removed;
    entry.rank_tests = it.rank_tests;
    entry.accepted = it.accepted;
    entry.columns_after = it.columns_after;
    report.iterations.push_back(entry);
  }

  report.events = result.events;
  report.peak_rss_bytes = obs::process_peak_rss_bytes();
  report.rss_bytes = obs::process_current_rss_bytes();
  report.mem_limit_bytes = result.mem_limit_bytes;
  report.mem_peak_bytes = result.mem_peak_bytes;
  report.spill_bytes = result.spill_bytes;
  report.spill_blocks = result.spill_blocks;
  report.totals["spill_bytes"] = result.spill_bytes;
  report.totals["spill_blocks"] = result.spill_blocks;

  // Counter-derived flow attribution (waits, imbalance, per-subset
  // utilization).  Callers holding a trace re-run analyze_flow with the
  // recorded events to add the critical path and flow-pairing stats.
  report.flow = obs::analyze_flow(report, nullptr);
  return report;
}

}  // namespace elmo
