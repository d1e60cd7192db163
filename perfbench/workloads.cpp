#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <variant>

#include "analysis/decompose.hpp"
#include "analysis/knockout.hpp"
#include "analysis/yield.hpp"
#include "compress/compression.hpp"
#include "generator.hpp"
#include "network/parser.hpp"
#include "oracle.hpp"
#include "pipeline.hpp"
#include "support/timer.hpp"

namespace perfbench {

using namespace elmo;

namespace {

constexpr double kMB = 1e6;
constexpr int kSolveSetups = 21;  // set-up is milliseconds: repeat for a median
constexpr int kQuerySetups = 6;   // set-up includes a ~2 s solve
constexpr std::size_t kQueryClients = 2;
constexpr std::size_t kDecomposeMaxTerms = 2;

// ---------------------------------------------------------------- helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMB;  // KiB on Linux
}

/// Per-layer samples, one push per traced job or query; reported as medians.
/// Counts repeat exactly, so their median is the count itself.
using Samples = std::map<std::string, std::vector<double>>;

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(const std::string& what, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", what.c_str(),
                 error.c_str());
  }
};

// ----------------------------------------------------------------- set-up

struct Instance {
  Network network;
  CompressedProblem compressed;
  double seconds = 0.0;  // generate + parse + compress
};

Instance set_up(const std::vector<std::string>& knockouts, std::uint64_t seed,
                Tracer& tracer) {
  Instance inst;
  Stopwatch watch;
  auto root = tracer.scope("bench", "setup");
  std::string text;
  {
    auto span = tracer.scope("bench", "generate");
    text = network_text(knockouts, seed);
  }
  {
    auto span = tracer.scope("network", "parse_network");
    inst.network = parse_network(text);
  }
  {
    auto span = tracer.scope("compress", "compress");
    inst.compressed = compress(inst.network);
  }
  inst.seconds = watch.seconds();
  return inst;
}

void add_setup_samples(const Tracer& tracer, Samples& samples) {
  const auto spans = tracer.spans();
  for (double s : span_seconds(spans, "parse_network"))
    samples["network.parse_ms"].push_back(s * 1e3);
  for (double s : span_seconds(spans, "compress"))
    samples["compress.compress_ms"].push_back(s * 1e3);
}

/// Every per-layer number one traced solve job yields.
void add_job_samples(const JobResult& job, const std::vector<Span>& spans,
                     int root, Samples& samples) {
  auto push = [&](const char* name, double value) {
    samples[name].push_back(value);
  };
  auto span_total = [&](const char* name) {
    double total = 0.0;
    for (const Span& s : spans)
      if (s.name == name && s.parent == root) total += s.seconds();
    return total;
  };
  const auto& st = job.efm.stats;
  const double modes = static_cast<double>(job.efm.modes.size());
  const double expand_s = span_total("expand");
  push("compress.expand_s", expand_s);
  push("compress.expand_us_per_mode", modes > 0 ? expand_s / modes * 1e6 : 0.0);
  push("nullspace.solve_s", span_total("solve_efms"));
  push("nullspace.gen_cand_s", st.phases.seconds(Phase::kGenCand));
  push("nullspace.rank_test_s", st.phases.seconds(Phase::kRankTest));
  push("nullspace.merge_s", st.phases.seconds(Phase::kMerge));
  push("nullspace.to_bigint_s", span_total("columns_to_bigint"));
  push("nullspace.canonicalize_s", span_total("canonicalize_modes"));
  push("nullspace.iterations", static_cast<double>(st.iterations));
  push("nullspace.pairs_probed", static_cast<double>(st.total_pairs_probed));
  push("nullspace.pairs_pruned", static_cast<double>(st.total_pairs_pruned));
  push("nullspace.pretest_survivors",
       static_cast<double>(st.total_pretest_survivors));
  push("nullspace.rank_tests", static_cast<double>(st.total_rank_tests));
  push("nullspace.accepted", static_cast<double>(st.total_accepted));
  push("nullspace.duplicates_removed",
       static_cast<double>(st.total_duplicates_removed));
  push("nullspace.rank_warmstart_reuses",
       static_cast<double>(st.total_rank_warmstart_reuses));
  push("nullspace.rank_dense_fallbacks",
       static_cast<double>(st.total_rank_dense_fallbacks));
  push("nullspace.peak_columns", static_cast<double>(st.peak_columns));
  push("nullspace.survivor_ratio",
       st.total_pairs_probed ? static_cast<double>(st.total_pretest_survivors) /
                                   static_cast<double>(st.total_pairs_probed)
                             : 0.0);
  push("nullspace.accept_ratio",
       st.total_rank_tests ? static_cast<double>(st.total_accepted) /
                                 static_cast<double>(st.total_rank_tests)
                           : 0.0);
  push("nullspace.peak_matrix_mb",
       static_cast<double>(st.peak_matrix_bytes) / kMB);
  push("resource.mem_peak_mb", static_cast<double>(job.efm.mem_peak_bytes) / kMB);
  push("resource.spill_mb", static_cast<double>(job.efm.spill_bytes) / kMB);

  // Divide-and-conquer driver and message layer (zero on a serial job).
  const auto& subsets = job.efm.subsets;
  double subset_max = 0.0, subset_sum = 0.0, busy = 0.0, wait_data = 0.0,
         wait_barrier = 0.0, waits = 0.0;
  std::uint64_t cumulative_pairs = 0;
  for (const auto& subset : subsets) {
    subset_max = std::max(subset_max, subset.seconds);
    subset_sum += subset.seconds;
    cumulative_pairs += subset.candidate_pairs;
    for (const auto& rank : subset.ranks) {
      for (const auto& [phase, seconds] : rank.phase_seconds) busy += seconds;
      wait_data += static_cast<double>(rank.wait_data_us) * 1e-6;
      wait_barrier += static_cast<double>(rank.wait_barrier_us) * 1e-6;
      waits += static_cast<double>(rank.wait_data_us + rank.wait_barrier_us +
                                   rank.wait_straggler_us) *
               1e-6;
    }
  }
  push("core.solve_combined_s", span_total("solve_combined"));
  push("core.subsets", static_cast<double>(subsets.size()));
  push("core.subset_max_s", subset_max);
  push("core.subset_imbalance",
       subsets.empty() || subset_sum <= 0.0
           ? 0.0
           : subset_max / (subset_sum / static_cast<double>(subsets.size())));
  push("core.cumulative_pairs", static_cast<double>(cumulative_pairs));
  push("core.retries", static_cast<double>(job.efm.total_retries));
  push("mpsim.communicate_s", st.phases.seconds(Phase::kCommunicate));
  push("mpsim.message_mb", static_cast<double>(job.efm.message_bytes) / kMB);
  push("mpsim.wait_data_s", wait_data);
  push("mpsim.wait_barrier_s", wait_barrier);
  push("mpsim.utilization", busy + waits > 0.0 ? busy / (busy + waits) : 0.0);
  push("mpsim.peak_rank_mb", static_cast<double>(job.efm.peak_rank_memory) / kMB);
  push("parallel.cpu_per_wall",
       job.seconds > 0.0 ? job.cpu_seconds / job.seconds : 0.0);
  push("io.csv_s", job.csv_seconds);
  push("io.csv_mb", static_cast<double>(job.csv_bytes) / kMB);

  const auto self = self_seconds_by_layer(spans, root);
  double layers = 0.0;
  for (const char* layer : {"nullspace", "core", "compress", "io"}) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    samples[std::string("trace.self_") + layer + "_s"].push_back(s);
    layers += s;
  }
  const auto glue = self.find("bench");
  push("trace.self_bench_s", glue == self.end() ? 0.0 : glue->second);
  push("trace.layer_self_s", layers);
  push("trace.job_s", job.seconds);
}

/// Overhead and hash cross-check of the traced replay against the public
/// API on the same instance.
void add_trace_summary(double untraced_job_s, bool hash_match,
                       std::size_t traced_jobs, Samples& samples) {
  const double traced = median(samples["trace.job_s"]);
  const double layers = median(samples["trace.layer_self_s"]);
  samples["trace.untraced_job_s"] = {untraced_job_s};
  samples["trace.overhead_pct"] = {
      untraced_job_s > 0 ? (traced - untraced_job_s) / untraced_job_s * 100.0
                         : 0.0};
  samples["trace.accounted_pct"] = {
      untraced_job_s > 0 ? layers / untraced_job_s * 100.0 : 0.0};
  samples["trace.hash_match"] = {hash_match ? 1.0 : 0.0};
  samples["trace.samples"] = {static_cast<double>(traced_jobs)};
  std::printf(
      "perfbench: traced job %.3f s, untraced %.3f s (overhead %+.1f%%); "
      "layer self times %.3f s = %.1f%% of the untraced job\n",
      traced, untraced_job_s, median(samples["trace.overhead_pct"]), layers,
      median(samples["trace.accounted_pct"]));
}

/// The run's metrics in metric_list order, each the median of its samples
/// (0 for a layer the workload does not use).  Untraced runs add the
/// process-wide figures.
RunOutcome finish(const Tally& tally, Samples& samples, bool trace) {
  RunOutcome out;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  if (!trace) {
    samples["peak_rss_mb"] = {peak_rss_mb()};
    samples["pass_ratio"] = {
        static_cast<double>(tally.attempted - tally.failed) /
        static_cast<double>(std::max<std::uint64_t>(tally.attempted, 1))};
  }
  for (const auto& [name, unit] : metric_list(trace)) {
    auto it = samples.find(name);
    out.metrics.push_back(
        {name, it == samples.end() ? 0.0 : median(it->second), unit});
  }
  return out;
}

// ----------------------------------------------------------- solve loads

RunOutcome run_solve(const RunArgs& args, const SolveConfig& config) {
  Tracer tracer(args.trace);
  Tally tally;
  Samples samples;
  std::vector<double> setup_times;
  Instance inst;
  for (int k = 0; k < kSolveSetups; ++k) {
    inst = set_up(solve_knockouts(), args.seed, tracer);
    setup_times.push_back(inst.seconds);
  }
  add_setup_samples(tracer, samples);
  const auto reversibility = inst.network.reversibility();

  // Untraced jobs (and, in a traced run, traced replays alternating with
  // them) until the time is up; at least one of each.
  // The first job is untraced, so every replay has a hash to match.
  std::vector<double> job_times;
  std::size_t traced_jobs = 0;
  std::uint64_t untraced_hash = 0;
  bool hashes_agree = true;
  Stopwatch run;
  for (int i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    JobResult job;
    int root = -1;
    if (traced)
      job = layered_job(inst.network, inst.compressed, config, tracer, root);
    else
      job = untraced_job(inst.compressed, reversibility, config);
    tally.record(traced ? "traced job" : "job",
                 check_mode_set(inst.network, job.efm.modes,
                                job.efm.reaction_names, kSolveReference));
    const auto hash = mode_set_hash(job.efm.modes, job.efm.reaction_names);
    if (traced) {
      add_job_samples(job, tracer.spans(), root, samples);
      ++traced_jobs;
      hashes_agree = hashes_agree && hash == untraced_hash;
    } else {
      untraced_hash = hash;
      job_times.push_back(job.seconds);
    }
    if (run.seconds() >= args.seconds && (!args.trace || traced_jobs > 0))
      break;
  }

  std::printf("perfbench: %zu jobs, median %.3f s:", job_times.size(),
              median(job_times));
  for (double t : job_times) std::printf(" %.3f", t);
  std::printf("\n");
  if (args.trace) {
    tally.record("traced/untraced mode-set hash",
                 hashes_agree ? "" : "layered replay differs from compute_efms");
    add_trace_summary(median(job_times), hashes_agree, traced_jobs, samples);
    if (!args.trace_path.empty()) tracer.write_json(args.trace_path);
    return finish(tally, samples, args.trace);
  }
  // A request of the solve workloads is one job; one client sends them
  // back to back, so throughput is jobs over the time spent in jobs.
  double busy = 0.0;
  for (double t : job_times) busy += t;
  samples["solve_s"] = job_times;
  samples["setup_s"] = setup_times;
  samples["query_p50_ms"] = {percentile(job_times, 50) * 1e3};
  samples["query_p99_ms"] = {percentile(job_times, 99) * 1e3};
  samples["queries_per_s"] = {static_cast<double>(job_times.size()) / busy};
  return finish(tally, samples, args.trace);
}

// ---------------------------------------------------------- query load

/// A query with its reaction names resolved to ids and its flux built.
struct PreparedQuery {
  QueryKind kind = QueryKind::kSurviving;
  std::vector<ReactionId> reactions;
  std::vector<BigInt> flux;  // kDecompose
};

/// What the oracle needs of one answer.
struct SurvivingAnswer {
  std::size_t count;
  std::uint64_t digest;
};
using Answer =
    std::variant<SurvivingAnswer, std::vector<std::vector<ReactionId>>,
                 std::optional<ModeYield>, KnockoutReport, Decomposition>;

struct Completed {
  std::size_t stream_index;
  double seconds;
  Answer answer;
};

Answer run_query(const PreparedQuery& q, const Network& network,
                 const Modes& modes, const std::vector<bool>& reversibility) {
  switch (q.kind) {
    case QueryKind::kSurviving:
      break;  // timed by the caller, which keeps the survivor list
    case QueryKind::kCutSets:
      return minimal_cut_sets_2(modes, q.reactions[0], network.num_reactions());
    case QueryKind::kYield:
      return optimal_yield(modes, q.reactions[0], q.reactions[1]);
    case QueryKind::kScreen:
      return knockout_screen(network, modes, q.reactions[0]);
    case QueryKind::kDecompose: {
      DecomposeOptions options;
      options.max_terms = kDecomposeMaxTerms;
      return decompose_flux(q.flux, modes, reversibility, options);
    }
  }
  throw std::logic_error("unknown query kind");
}

std::string verify(const Completed& done, const PreparedQuery& q,
                   const QueryOracle& oracle,
                   std::map<std::string, std::string>& verified) {
  // Cut sets, yields and screens depend only on their reactions: check
  // the first answer per key with the oracle, later ones against it.
  auto memo = [&](const std::string& key, const std::string& fingerprint,
                  auto&& check) -> std::string {
    auto it = verified.find(key);
    if (it != verified.end())
      return it->second == fingerprint ? "" : key + ": answer changed between calls";
    auto error = check();
    if (error.empty()) verified.emplace(key, fingerprint);
    return error;
  };
  const std::string key = std::string(query_kind_name(q.kind)) + ":" +
                          std::to_string(q.reactions.empty() ? 0 : q.reactions[0]) +
                          ":" +
                          std::to_string(q.reactions.size() > 1 ? q.reactions[1] : 0);
  switch (q.kind) {
    case QueryKind::kSurviving: {
      const auto& a = std::get<SurvivingAnswer>(done.answer);
      return oracle.check_surviving(q.reactions, a.count, a.digest);
    }
    case QueryKind::kCutSets: {
      const auto& a = std::get<std::vector<std::vector<ReactionId>>>(done.answer);
      std::string fp;
      for (const auto& set : a) {
        for (auto r : set) fp += std::to_string(r) + ",";
        fp += ";";
      }
      return memo(key, fp, [&] { return oracle.check_cut_sets(q.reactions[0], a); });
    }
    case QueryKind::kYield: {
      const auto& a = std::get<std::optional<ModeYield>>(done.answer);
      const std::string fp =
          a ? std::to_string(a->mode_index) + "/" + a->yield.num().to_string() +
                  "/" + a->yield.den().to_string()
            : "none";
      return memo(key, fp, [&] {
        return oracle.check_yield(q.reactions[0], q.reactions[1], a);
      });
    }
    case QueryKind::kScreen: {
      const auto& a = std::get<KnockoutReport>(done.answer);
      std::string fp = std::to_string(a.wild_type_producing) + ";";
      for (const auto& e : a.effects)
        fp += std::to_string(e.surviving) + "," +
              std::to_string(e.surviving_producing) + (e.essential ? "e;" : ";");
      return memo(key, fp, [&] { return oracle.check_screen(q.reactions[0], a); });
    }
    case QueryKind::kDecompose:
      return oracle.check_decomposition(q.flux, std::get<Decomposition>(done.answer));
  }
  return "unknown query kind";
}

RunOutcome run_queries(const RunArgs& args) {
  Tracer tracer(args.trace);
  Tally tally;
  Samples samples;
  const SolveConfig serial;

  // Set-up: generate, parse, compress and solve the queried set; repeated
  // for a median, every solve checked.  solve_s leaves out the first solve,
  // which faults in the heap and is usually the slowest.
  std::vector<double> setup_times, solve_times;
  Instance inst;
  JobResult solved;
  for (int k = 0; k < kQuerySetups; ++k) {
    Stopwatch watch;
    inst = set_up(query_knockouts(), args.seed, tracer);
    solved = untraced_job(inst.compressed, inst.network.reversibility(), serial);
    setup_times.push_back(watch.seconds());
    if (k > 0) solve_times.push_back(solved.seconds);
    tally.record("query-set solve",
                 check_mode_set(inst.network, solved.efm.modes,
                                solved.efm.reaction_names, kQueryReference));
  }
  add_setup_samples(tracer, samples);
  const Modes& modes = solved.efm.modes;
  const auto reversibility = inst.network.reversibility();

  if (args.trace) {
    int root = -1;
    auto job = layered_job(inst.network, inst.compressed, serial, tracer, root);
    add_job_samples(job, tracer.spans(), root, samples);
    const bool match = mode_set_hash(job.efm.modes, job.efm.reaction_names) ==
                       mode_set_hash(modes, solved.efm.reaction_names);
    tally.record("traced/untraced mode-set hash",
                 match ? "" : "layered replay differs from compute_efms");
    add_trace_summary(median(solve_times), match, 1, samples);
  }

  // The query stream; more than a run can use, consumed in order.
  const auto stream =
      query_stream(solved.efm.reaction_names, modes.size(), 20000, args.seed);
  std::vector<PreparedQuery> prepared(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Query& q = stream[i];
    PreparedQuery& p = prepared[i];
    p.kind = q.kind;
    for (const auto& name : q.reactions)
      p.reactions.push_back(inst.network.reaction_id(name));
    if (q.kind == QueryKind::kDecompose) {
      p.flux.assign(modes.front().size(), BigInt());
      for (std::size_t t = 0; t < q.mode_indices.size(); ++t)
        for (std::size_t r = 0; r < p.flux.size(); ++r)
          p.flux[r] += modes[q.mode_indices[t]][r] * BigInt(q.weights[t]);
    }
  }

  // Closed loop: each client sends its next query when the last returns.
  // A client's exception is kept and rethrown once both clients joined.
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Completed>> done(kQueryClients);
  std::vector<std::exception_ptr> errors(kQueryClients);
  Stopwatch run;
  auto client = [&](std::size_t c) {
    try {
      while (run.seconds() < args.seconds) {
        const std::size_t i = next.fetch_add(1);
        const PreparedQuery& q = prepared[i % prepared.size()];
        Answer answer;
        std::vector<std::size_t> survivors;
        Stopwatch watch;
        {
          auto span = tracer.scope("analysis", query_kind_name(q.kind));
          if (q.kind == QueryKind::kSurviving)
            survivors = surviving_modes(modes, q.reactions);
          else
            answer = run_query(q, inst.network, modes, reversibility);
        }
        const double seconds = watch.seconds();
        // The survivor list is kept as a digest, made outside the timing.
        if (q.kind == QueryKind::kSurviving)
          answer = SurvivingAnswer{survivors.size(), index_digest(survivors)};
        done[c].push_back({i % prepared.size(), seconds, std::move(answer)});
      }
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  const double cpu0 = process_cpu_seconds();
  {
    std::vector<std::jthread> clients;  // joined when the scope ends
    for (std::size_t c = 0; c < kQueryClients; ++c)
      clients.emplace_back(client, c);
  }
  const double wall = run.seconds();
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
  const double cpu = process_cpu_seconds() - cpu0;

  const QueryOracle oracle(inst.network, modes);
  std::map<std::string, std::string> verified;
  std::vector<double> latencies;
  std::map<QueryKind, std::vector<double>> by_kind;
  for (const auto& client : done) {
    for (const auto& d : client) {
      const auto& q = prepared[d.stream_index];
      tally.record(std::string("query ") + query_kind_name(q.kind),
                   verify(d, q, oracle, verified));
      latencies.push_back(d.seconds);
      by_kind[q.kind].push_back(d.seconds);
    }
  }

  if (args.trace) {
    const auto spans = tracer.spans();
    for (int k = 0; k < kNumQueryKinds; ++k) {
      const char* kind = query_kind_name(static_cast<QueryKind>(k));
      std::vector<double> ms;
      for (double s : span_seconds(spans, kind)) ms.push_back(s * 1e3);
      samples[std::string("analysis.") + kind + "_ms"] = {median(ms)};
    }
    samples["parallel.cpu_per_wall"] = {wall > 0 ? cpu / wall : 0.0};
    if (!args.trace_path.empty()) tracer.write_json(args.trace_path);
  }
  std::printf("perfbench: %zu set-up solves after the first, median %.3f s:",
              solve_times.size(), median(solve_times));
  for (double t : solve_times) std::printf(" %.3f", t);
  std::printf("\nperfbench: %zu queries by %zu clients;", latencies.size(),
              kQueryClients);
  for (const auto& [kind, values] : by_kind)
    std::printf(" %s %zu (median %.3f ms)", query_kind_name(kind),
                values.size(), median(values) * 1e3);
  std::printf("\n");
  if (args.trace) return finish(tally, samples, args.trace);
  samples["solve_s"] = solve_times;
  samples["setup_s"] = setup_times;
  samples["query_p50_ms"] = {percentile(latencies, 50) * 1e3};
  samples["query_p99_ms"] = {percentile(latencies, 99) * 1e3};
  samples["queries_per_s"] = {static_cast<double>(latencies.size()) / wall};
  return finish(tally, samples, args.trace);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& metric_list(
    bool trace) {
  static const std::vector<std::pair<std::string, std::string>> end_to_end = {
      {"solve_s", "s"},         {"setup_s", "s"},
      {"peak_rss_mb", "MB"},    {"pass_ratio", "ratio"},
      {"query_p50_ms", "ms"},   {"query_p99_ms", "ms"},
      {"queries_per_s", "1/s"},
  };
  static const std::vector<std::pair<std::string, std::string>> per_layer = {
      {"network.parse_ms", "ms"},
      {"compress.compress_ms", "ms"},
      {"compress.expand_s", "s"},
      {"compress.expand_us_per_mode", "us"},
      {"nullspace.solve_s", "s"},
      {"nullspace.gen_cand_s", "s"},
      {"nullspace.rank_test_s", "s"},
      {"nullspace.merge_s", "s"},
      {"nullspace.to_bigint_s", "s"},
      {"nullspace.canonicalize_s", "s"},
      {"nullspace.iterations", "count"},
      {"nullspace.pairs_probed", "count"},
      {"nullspace.pairs_pruned", "count"},
      {"nullspace.pretest_survivors", "count"},
      {"nullspace.rank_tests", "count"},
      {"nullspace.accepted", "count"},
      {"nullspace.duplicates_removed", "count"},
      {"nullspace.rank_warmstart_reuses", "count"},
      {"nullspace.rank_dense_fallbacks", "count"},
      {"nullspace.peak_columns", "count"},
      {"nullspace.survivor_ratio", "ratio"},
      {"nullspace.accept_ratio", "ratio"},
      {"nullspace.peak_matrix_mb", "MB"},
      {"resource.mem_peak_mb", "MB"},
      {"resource.spill_mb", "MB"},
      {"core.solve_combined_s", "s"},
      {"core.subsets", "count"},
      {"core.subset_max_s", "s"},
      {"core.subset_imbalance", "ratio"},
      {"core.cumulative_pairs", "count"},
      {"core.retries", "count"},
      {"mpsim.communicate_s", "s"},
      {"mpsim.message_mb", "MB"},
      {"mpsim.wait_data_s", "s"},
      {"mpsim.wait_barrier_s", "s"},
      {"mpsim.utilization", "ratio"},
      {"mpsim.peak_rank_mb", "MB"},
      {"parallel.cpu_per_wall", "ratio"},
      {"io.csv_s", "s"},
      {"io.csv_mb", "MB"},
      {"analysis.surviving_ms", "ms"},
      {"analysis.cut_sets_ms", "ms"},
      {"analysis.yield_ms", "ms"},
      {"analysis.screen_ms", "ms"},
      {"analysis.decompose_ms", "ms"},
      {"trace.job_s", "s"},
      {"trace.untraced_job_s", "s"},
      {"trace.overhead_pct", "%"},
      {"trace.self_nullspace_s", "s"},
      {"trace.self_core_s", "s"},
      {"trace.self_compress_s", "s"},
      {"trace.self_io_s", "s"},
      {"trace.self_bench_s", "s"},
      {"trace.layer_self_s", "s"},
      {"trace.accounted_pct", "%"},
      {"trace.hash_match", "count"},
      {"trace.samples", "count"},
  };
  return trace ? per_layer : end_to_end;
}

RunOutcome run_workload(const RunArgs& args) {
  if (args.workload == "serial_solve") return run_solve(args, SolveConfig{});
  if (args.workload == "dc_solve") {
    SolveConfig config;
    config.algorithm = Algorithm::kCombined;
    config.num_ranks = 4;
    config.qsub = 2;
    return run_solve(args, config);
  }
  if (args.workload == "efm_queries") return run_queries(args);
  throw std::invalid_argument("unknown workload: " + args.workload);
}

}  // namespace perfbench
