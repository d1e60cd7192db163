#include "pipeline.hpp"

#include <sys/resource.h>

#include <algorithm>

#include "bigint/checked.hpp"
#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "core/combined.hpp"
#include "io/efm_writer.hpp"
#include "nullspace/efm.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "resource/governor.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace perfbench {

using namespace elmo;

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

EfmOptions SolveConfig::options() const {
  EfmOptions options;
  options.algorithm = algorithm;
  options.num_ranks = num_ranks;
  options.threads_per_rank = 1;
  options.qsub = qsub;
  return options;
}

JobResult untraced_job(const CompressedProblem& compressed,
                       const std::vector<bool>& reversibility,
                       const SolveConfig& config) {
  JobResult job;
  const double cpu0 = process_cpu_seconds();
  Stopwatch watch;
  job.efm = compute_efms(compressed, reversibility, config.options());
  Stopwatch csv_watch;
  job.csv_bytes = efms_to_csv(job.efm.modes, job.efm.reaction_names).size();
  job.csv_seconds = csv_watch.seconds();
  job.seconds = watch.seconds();
  job.cpu_seconds = process_cpu_seconds() - cpu0;
  return job;
}

namespace {

/// api.cpp's per-rank report entries, rebuilt from a subset's counters.
std::vector<obs::RankEntry> rank_entries(const mpsim::RunReport& report,
                                         const std::vector<SolveStats>& stats) {
  std::vector<obs::RankEntry> entries(std::max(report.ranks.size(), stats.size()));
  for (std::size_t r = 0; r < entries.size(); ++r) {
    auto& entry = entries[r];
    entry.rank = static_cast<int>(r);
    if (r < report.ranks.size()) {
      const auto& c = report.ranks[r];
      entry.messages_sent = c.messages_sent;
      entry.messages_received = c.messages_received;
      entry.bytes_sent = c.bytes_sent;
      entry.memory_peak_bytes = c.memory_peak;
      entry.wait_data_us = c.wait_data_us;
      entry.wait_barrier_us = c.wait_barrier_us;
      entry.wait_straggler_us = c.wait_straggler_us;
    }
    if (r < stats.size()) entry.phase_seconds = stats[r].phases.totals();
  }
  return entries;
}

template <typename Scalar, typename Support>
void layered_solve(const Network& network, const CompressedProblem& compressed,
                   const SolveConfig& config, Tracer& tracer, EfmResult& out) {
  EfmProblem<Scalar> problem;
  {
    auto span = tracer.scope("nullspace", "to_problem");
    problem = to_problem<Scalar>(compressed);
  }
  std::vector<FluxColumn<Scalar, Support>> columns;
  if (config.algorithm == Algorithm::kCombined) {
    CombinedOptions combined;
    combined.qsub = config.qsub;
    combined.num_ranks = config.num_ranks;
    combined.threads_per_rank = 1;
    auto span = tracer.scope("core", "solve_combined");
    auto solved = solve_combined<Scalar, Support>(problem, combined);
    columns = std::move(solved.columns);
    out.stats = std::move(solved.total);
    out.total_retries = solved.total_retries;
    for (const auto& subset : solved.subsets) {
      SubsetSummary summary;
      summary.label = subset.label;
      summary.num_efms = subset.num_efms;
      summary.candidate_pairs = subset.stats.total_pairs_probed;
      summary.seconds = subset.seconds;
      summary.communicate_seconds =
          subset.stats.phases.seconds(Phase::kCommunicate);
      summary.attempts = subset.attempts;
      summary.ranks = rank_entries(subset.ranks, subset.rank_stats);
      out.subsets.push_back(std::move(summary));
      out.message_bytes += subset.ranks.total_bytes_sent();
      out.peak_rank_memory =
          std::max(out.peak_rank_memory, subset.ranks.max_memory_peak());
    }
  } else {
    auto span = tracer.scope("nullspace", "solve_efms");
    auto solved = solve_efms<Scalar, Support>(problem, SolverOptions{});
    columns = std::move(solved.columns);
    out.stats = std::move(solved.stats);
  }
  std::vector<std::vector<BigInt>> reduced;
  {
    auto span = tracer.scope("nullspace", "columns_to_bigint");
    reduced = columns_to_bigint(columns);
  }
  {
    auto span = tracer.scope("compress", "expand");
    out.modes.reserve(reduced.size());
    for (const auto& mode : reduced) out.modes.push_back(compressed.expand(mode));
  }
  {
    auto span = tracer.scope("nullspace", "canonicalize_modes");
    canonicalize_modes(out.modes, network.reversibility());
  }
  out.used_bigint = std::is_same_v<Scalar, BigInt>;
}

template <typename Scalar>
void layered_solve_sized(const Network& network,
                         const CompressedProblem& compressed,
                         const SolveConfig& config, Tracer& tracer,
                         EfmResult& out) {
  // Support width chosen as api.cpp does: one bit per reduced reaction
  // plus one per reversible reaction the solver may split.
  const auto worst_case =
      compressed.num_reactions() +
      static_cast<std::size_t>(std::count(compressed.reversible.begin(),
                                          compressed.reversible.end(), true));
  if (worst_case <= Bitset64::capacity())
    layered_solve<Scalar, Bitset64>(network, compressed, config, tracer, out);
  else
    layered_solve<Scalar, DynBitset>(network, compressed, config, tracer, out);
}

}  // namespace

JobResult layered_job(const Network& network,
                      const CompressedProblem& compressed,
                      const SolveConfig& config, Tracer& tracer,
                      int& root_span) {
  JobResult job;
  const double cpu0 = process_cpu_seconds();
  Stopwatch watch;
  {
    auto root = tracer.scope("bench", "job");
    root_span = root.id();
    auto& governor = resource::MemoryGovernor::global();
    governor.reset();
    governor.set_limit(0);
    try {
      layered_solve_sized<CheckedI64>(network, compressed, config, tracer,
                                      job.efm);
    } catch (const OverflowError&) {
      job.efm = EfmResult{};
      layered_solve_sized<BigInt>(network, compressed, config, tracer, job.efm);
      job.efm.stats.bigint_fallback = true;
    }
    job.efm.reaction_names = compressed.original_reaction_names;
    job.efm.mem_peak_bytes = governor.peak_usage();
    job.efm.spill_bytes = governor.spill_bytes();
    Stopwatch csv_watch;
    {
      auto span = tracer.scope("io", "efms_to_csv");
      job.csv_bytes = efms_to_csv(job.efm.modes, job.efm.reaction_names).size();
    }
    job.csv_seconds = csv_watch.seconds();
  }
  job.seconds = watch.seconds();
  job.cpu_seconds = process_cpu_seconds() - cpu0;
  return job;
}

}  // namespace perfbench
