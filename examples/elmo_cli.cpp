// elmo_cli — file-in / file-out elementary-flux-mode computation.
//
//   $ ./examples/elmo_cli network.txt                   # modes to stdout
//   $ ./examples/elmo_cli network.txt -o modes.csv      # CSV to a file
//   $ ./examples/elmo_cli network.txt --algorithm combined --ranks 8
//         --partition R6r,R8r --stats
//   $ ./examples/elmo_cli --builtin toy                 # bundled models
//
// The input format is the reaction-list text documented in
// src/network/parser.hpp (and printed by --help).
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <optional>

#include "bitset/dynbitset.hpp"
#include "check/audit.hpp"
#include "core/estimate.hpp"
#include "core/subset_select.hpp"
#include "elmo/elmo.hpp"
#include "models/ecoli_core.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "resource/governor.hpp"
#include "resource/shutdown.hpp"
#include "support/format.hpp"

namespace {

constexpr const char* kUsage = R"(usage: elmo_cli [NETWORK_FILE] [options]

input (one of):
  NETWORK_FILE              reaction-list text file
  --builtin toy|yeast1|yeast2|ecoli

options:
  -o, --output FILE         write modes as CSV (default: stdout, text form)
  --algorithm serial|parallel|partitioned|combined   (default serial)
  --ranks N                 simulated compute ranks     (default 4)
  --threads N               shared-memory workers/rank  (default 1)
  --knockout A,B,...        drop the named reactions before solving (the
                            knockout-reduced instances of the hybrid and
                            resource tests; unknown names are errors)
  --partition A,B,...       divide-and-conquer reactions (combined)
  --qsub N                  auto-select N partition reactions (combined)
  --memory-budget BYTES     per-rank memory budget (0 = unlimited)
  --max-extra-splits N      adaptive re-splits on budget errors (combined)
  --retries N               attempts per subset before giving up (combined)
  --retry-serial            make the last attempt serial and unbudgeted
  --checkpoint FILE         append completed subsets to FILE (combined)
  --resume FILE             skip subsets already completed in FILE; also
                            continues appending to FILE unless --checkpoint
                            names a different one
resource governance:
  --mem-limit BYTES         process-wide memory limit enforced by the
                            MemoryGovernor (0 = ungoverned); crossing the
                            half-limit watermark spills candidate blocks
                            out-of-core, busting the limit degrades the run
                            (smaller tiles, spill-always, serial) instead
                            of dying
  --spill-dir DIR           directory for out-of-core candidate blocks
                            (default: the system temp dir); implies spill
                            is enabled
  --spill-always            write every candidate block out-of-core
                            (stress/bit-identity testing)
  --subset-deadline SECS    watchdog hard deadline per simulated world
                            (parallel, partitioned, combined); soft
                            straggler diagnosis at half that, wedged-world
                            detection at the full value; combined also
                            scales each subset's deadline by its estimated
                            cost relative to the median subset (up to 16x)
  SIGINT/SIGTERM cancel cooperatively at the next iteration boundary:
  completed subsets stay checkpointed, the report is flushed, and the
  process exits with code 75 (resumable) — rerun with --resume to continue
  losing at most one iteration.  A second signal kills immediately.

  --audit                   re-verify the algorithm's invariants at runtime
                            (S*R = 0 per iteration, exact Bareiss
                            rank-nullity of every accepted candidate,
                            support minimality, subset partition coverage,
                            pair conservation) and print the audit tally
  --stats                   print counters and phase times
  --validate                print structural warnings and exit
  --help

observability:
  --trace FILE              write a Chrome/Perfetto trace (trace_event JSON;
                            open at https://ui.perfetto.dev)
  --metrics FILE            write the metrics-registry snapshot as JSON
  --report FILE             write a per-run report.json (stats, per-rank
                            and per-subset breakdowns, growth history)
  --progress                print live progress/ETA lines to stderr
  --heartbeat FILE          append machine-readable JSONL heartbeats
  --ledger FILE             append a schema-versioned run record (JSONL) to
                            FILE; list/diff/regression-check recorded runs
                            with tools/elmo_stat
  (ELMO_TRACE / ELMO_METRICS environment variables preset --trace/--metrics)

reaction-list format:
  # comment
  external GLCext O2ext     # declare external metabolites
  R1  : GLCext + PEP => G6P + PYR
  R2r : G6P <=> F6P         # '<=>' marks reversible reactions
  (names ending in 'ext' are external by default)
)";

[[noreturn]] void usage(int code) {
  std::fputs(kUsage, code == 0 ? stdout : stderr);
  std::exit(code);
}

std::vector<std::string> split_csv(const std::string& arg) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= arg.size()) {
    std::size_t comma = arg.find(',', start);
    if (comma == std::string::npos) comma = arg.size();
    if (comma > start) out.push_back(arg.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace elmo;

  std::string input_path;
  std::string builtin;
  std::vector<std::string> knockout_names;
  std::string output_path;
  std::string algorithm = "serial";
  bool print_stats = false;
  bool validate_only = false;
  std::string trace_path;
  std::string metrics_path;
  std::string report_path;
  std::string heartbeat_path;
  std::string ledger_path;
  bool show_progress = false;
  if (const char* env = std::getenv("ELMO_TRACE")) trace_path = env;
  if (const char* env = std::getenv("ELMO_METRICS")) metrics_path = env;
  EfmOptions options;
  options.num_ranks = 4;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    auto next_number = [&](const char* flag,
                           unsigned long long max =
                               ULLONG_MAX) -> unsigned long long {
      std::string value = next();
      errno = 0;
      char* end = nullptr;
      unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0' ||
          errno == ERANGE) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got '%s'\n",
                     flag, value.c_str());
        std::exit(2);
      }
      if (parsed > max) {
        std::fprintf(stderr, "error: %s must be at most %llu, got '%s'\n",
                     flag, max, value.c_str());
        std::exit(2);
      }
      return parsed;
    };
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage(0);
    } else if (!std::strcmp(argv[i], "--builtin")) {
      builtin = next();
    } else if (!std::strcmp(argv[i], "-o") ||
               !std::strcmp(argv[i], "--output")) {
      output_path = next();
    } else if (!std::strcmp(argv[i], "--algorithm")) {
      algorithm = next();
    } else if (!std::strcmp(argv[i], "--ranks")) {
      options.num_ranks = static_cast<int>(next_number("--ranks", INT_MAX));
    } else if (!std::strcmp(argv[i], "--threads")) {
      options.threads_per_rank =
          static_cast<int>(next_number("--threads", INT_MAX));
    } else if (!std::strcmp(argv[i], "--knockout")) {
      knockout_names = split_csv(next());
    } else if (!std::strcmp(argv[i], "--partition")) {
      options.partition_reactions = split_csv(next());
    } else if (!std::strcmp(argv[i], "--qsub")) {
      options.qsub = static_cast<std::size_t>(next_number("--qsub"));
    } else if (!std::strcmp(argv[i], "--memory-budget")) {
      options.memory_budget_per_rank =
          static_cast<std::size_t>(next_number("--memory-budget"));
    } else if (!std::strcmp(argv[i], "--max-extra-splits")) {
      options.max_extra_splits =
          static_cast<std::size_t>(next_number("--max-extra-splits"));
    } else if (!std::strcmp(argv[i], "--mem-limit")) {
      options.mem_limit_bytes =
          static_cast<std::size_t>(next_number("--mem-limit"));
    } else if (!std::strcmp(argv[i], "--spill-dir")) {
      options.spill.directory = next();
      options.spill.enabled = true;
    } else if (!std::strcmp(argv[i], "--spill-always")) {
      options.spill.enabled = true;
      options.spill.always = true;
    } else if (!std::strcmp(argv[i], "--subset-deadline")) {
      const std::string value = next();
      errno = 0;
      char* end = nullptr;
      const double seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || errno == ERANGE ||
          seconds <= 0.0) {
        std::fprintf(stderr,
                     "error: --subset-deadline expects positive seconds, "
                     "got '%s'\n",
                     value.c_str());
        std::exit(2);
      }
      options.subset_deadline_seconds = seconds;
    } else if (!std::strcmp(argv[i], "--retries")) {
      options.retry.max_attempts =
          static_cast<int>(next_number("--retries", INT_MAX));
    } else if (!std::strcmp(argv[i], "--retry-serial")) {
      options.retry.serial_final_attempt = true;
    } else if (!std::strcmp(argv[i], "--checkpoint")) {
      options.checkpoint_path = next();
    } else if (!std::strcmp(argv[i], "--resume")) {
      options.resume_from = next();
    } else if (!std::strcmp(argv[i], "--audit")) {
      options.audit = true;
    } else if (!std::strcmp(argv[i], "--trace")) {
      trace_path = next();
    } else if (!std::strcmp(argv[i], "--metrics")) {
      metrics_path = next();
    } else if (!std::strcmp(argv[i], "--report")) {
      report_path = next();
    } else if (!std::strcmp(argv[i], "--progress")) {
      show_progress = true;
    } else if (!std::strcmp(argv[i], "--heartbeat")) {
      heartbeat_path = next();
    } else if (!std::strcmp(argv[i], "--ledger")) {
      ledger_path = next();
    } else if (!std::strcmp(argv[i], "--stats")) {
      print_stats = true;
    } else if (!std::strcmp(argv[i], "--validate")) {
      validate_only = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage(2);
    } else if (input_path.empty()) {
      input_path = argv[i];
    } else {
      usage(2);
    }
  }
  if (algorithm == "serial") {
    options.algorithm = Algorithm::kSerial;
  } else if (algorithm == "parallel") {
    options.algorithm = Algorithm::kCombinatorialParallel;
  } else if (algorithm == "partitioned") {
    options.algorithm = Algorithm::kPartitioned;
  } else if (algorithm == "combined") {
    options.algorithm = Algorithm::kCombined;
  } else {
    std::fprintf(stderr, "unknown algorithm: %s\n", algorithm.c_str());
    usage(2);
  }

  Network network;
  try {
    if (!builtin.empty()) {
      if (builtin == "toy") {
        network = models::toy_network();
      } else if (builtin == "yeast1") {
        network = models::yeast_network_1();
      } else if (builtin == "yeast2") {
        network = models::yeast_network_2();
      } else if (builtin == "ecoli") {
        network = models::ecoli_core();
      } else {
        std::fprintf(stderr, "unknown builtin: %s\n", builtin.c_str());
        usage(2);
      }
    } else if (!input_path.empty()) {
      std::ifstream in(input_path);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", input_path.c_str());
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      network = parse_network(text.str());
    } else {
      usage(2);
    }
  } catch (const ParseError& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }

  if (!knockout_names.empty()) {
    std::vector<ReactionId> knockouts;
    for (const auto& name : knockout_names) {
      auto id = network.find_reaction(name);
      if (!id) {
        std::fprintf(stderr, "unknown knockout reaction: %s\n", name.c_str());
        return 2;
      }
      knockouts.push_back(*id);
    }
    network = network.without_reactions(knockouts);
  }

  if (validate_only) {
    auto report = validate(network);
    if (report.clean()) {
      std::printf("network OK: %zu internal metabolites, %zu reactions\n",
                  network.num_internal_metabolites(),
                  network.num_reactions());
      return 0;
    }
    for (const auto& warning : report.warnings)
      std::printf("warning: %s\n", warning.c_str());
    return 3;
  }

  // Knockout runs get their own label so the run ledger never compares a
  // reduced instance against the full network under one workload key.
  std::string label = !builtin.empty() ? builtin : input_path;
  if (!knockout_names.empty())
    label += "-ko" + std::to_string(knockout_names.size());

  // Observability setup.  Tracing installs a process-global recorder;
  // metrics flip the (otherwise free) registry on; the report needs both
  // metrics and the per-iteration history.
  obs::TraceRecorder recorder;
  if (!trace_path.empty()) obs::install_trace(&recorder);
  if (!metrics_path.empty() || !report_path.empty() || !ledger_path.empty())
    obs::Registry::global().set_enabled(true);
  if (!report_path.empty()) options.record_history = true;

  // Crash-safe graceful shutdown: SIGINT/SIGTERM set a flag the solvers
  // poll at iteration boundaries; the CancelledError catch below flushes
  // the report and exits with the resumable code.
  resource::install_signal_handlers();

  try {
    auto compressed = compress(network, options.compression);

    // A-priori cost estimate: a cheap prefix run via the subset estimator,
    // shared by the progress ETA and the report's estimator-vs-actual
    // `flow` accounting.  For Algorithm 3 the whole-problem count would
    // overshoot badly (splitting is the paper's point), so resolve the
    // partition the driver will use and sum the 2^qsub subset estimates.
    double estimated_pairs = 0.0;
    double estimated_efms = 0.0;
    std::uint64_t estimated_iterations = 0;
    if (show_progress || !heartbeat_path.empty() || !report_path.empty() ||
        !ledger_path.empty()) {
      try {
        auto problem = to_problem<CheckedI64>(compressed);
        EstimateOptions eopts;
        eopts.pair_budget = 200'000;
        std::vector<std::size_t> rows;
        if (options.algorithm == Algorithm::kCombined) {
          if (options.partition_reactions.empty()) {
            rows = select_partition_rows(problem, options.ordering,
                                         options.qsub);
          } else {
            rows = partition_columns(compressed, options.partition_reactions);
          }
        }
        if (rows.empty()) {
          const auto estimate = estimate_subset<CheckedI64, DynBitset>(
              problem, SubsetSpec{}, eopts);
          estimated_pairs = estimate.estimated_pairs;
          estimated_efms = estimate.estimated_efms;
        } else {
          for (std::uint64_t id = 0;
               id < (std::uint64_t{1} << rows.size()); ++id) {
            SubsetSpec spec;
            for (std::size_t k = 0; k < rows.size(); ++k)
              spec.pattern.emplace_back(rows[k], (id >> k) & 1);
            const auto estimate = estimate_subset<CheckedI64, DynBitset>(
                problem, spec, eopts);
            estimated_pairs += estimate.estimated_pairs;
            estimated_efms += estimate.estimated_efms;
          }
        }
        // Iteration count: the solver processes one constrained row per
        // iteration (~the reduced rank, = row count after compression);
        // Algorithm 3 runs 2^qsub subsets stopped qsub iterations early.
        const std::size_t m = problem.num_metabolites();
        if (options.algorithm == Algorithm::kCombined && !rows.empty()) {
          estimated_iterations =
              (std::uint64_t{1} << rows.size()) *
              (m > rows.size() ? m - rows.size() : 1);
        } else {
          estimated_iterations = m;
        }
      } catch (const Error&) {
        // Estimation is best effort; progress falls back to pair counts
        // with no completion fraction, and the report's estimate reads 0.
      }
    }

    std::optional<obs::ProgressReporter> progress;
    if (show_progress || !heartbeat_path.empty()) {
      obs::ProgressOptions popts;
      popts.print = show_progress;
      popts.heartbeat_path = heartbeat_path;
      popts.label = label;
      // Resource gauges for the heartbeat records: governor charge and
      // out-of-core spill volume (RSS the reporter reads itself).
      popts.mem_usage_source = [] {
        return static_cast<std::uint64_t>(
            resource::MemoryGovernor::global().usage());
      };
      popts.spill_bytes_source = [] {
        return resource::MemoryGovernor::global().spill_bytes();
      };
      if (estimated_pairs > 0) {
        popts.total_pairs_estimate =
            static_cast<std::uint64_t>(estimated_pairs);
      }
      popts.total_iterations = estimated_iterations;
      progress.emplace(std::move(popts));
      auto user_callback = options.on_iteration;
      auto* reporter = &*progress;
      options.on_iteration = [reporter,
                              user_callback](const IterationStats& it) {
        obs::ProgressSample sample;
        sample.iteration = 0;  // reporter counts iterations itself
        // Parallel ranks report slice-local pairs_probed; positives x
        // negatives is the iteration's GLOBAL pair count on any rank (the
        // matrix is replicated), and equals pairs_probed for Algorithm 1.
        sample.pairs_probed = it.positives * it.negatives;
        sample.accepted = it.accepted;
        sample.columns = it.columns_after;
        reporter->on_iteration(sample);
        if (user_callback) user_callback(it);
      };
      // One unthrottled heartbeat per committed subset (Algorithm 3), so
      // even a subset that finishes inside the throttle interval is seen.
      options.on_subset = [reporter](const std::string& subset_label,
                                     std::size_t num_efms, double seconds) {
        reporter->on_subset(subset_label,
                            static_cast<std::uint64_t>(num_efms), seconds);
      };
    }

    EfmResult result = compute_efms(compressed, network.reversibility(),
                                    options);
    if (progress) progress->finish(result.num_modes());
    if (!trace_path.empty()) {
      obs::install_trace(nullptr);
      recorder.write(trace_path);
      std::fprintf(stderr, "%zu trace events written to %s\n",
                   recorder.event_count(), trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      out << obs::Registry::global().snapshot().to_json().dump(2) << '\n';
      if (!out) {
        throw std::runtime_error("cannot write metrics file: " +
                                 metrics_path);
      }
      std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
    }
    if (!report_path.empty() || !ledger_path.empty()) {
      auto report = make_solve_report(result, options, label);
      if (!trace_path.empty()) {
        // Re-run the flow analysis with the recorded span/flow streams:
        // adds the cross-rank critical path and flow-pairing stats the
        // counter-only pass inside make_solve_report cannot see.
        const auto events = recorder.snapshot_events();
        report.flow = obs::analyze_flow(report, &events);
      }
      report.flow.estimated_pairs = estimated_pairs;
      report.flow.estimated_efms = estimated_efms;
      if (!report_path.empty()) {
        report.write(report_path);
        std::fprintf(stderr, "report written to %s\n", report_path.c_str());
      }
      if (!ledger_path.empty()) {
        obs::append_ledger_record(
            ledger_path, obs::make_ledger_record_env(report.to_json()));
        std::fprintf(stderr, "run recorded in %s\n", ledger_path.c_str());
      }
    }
    if (output_path.empty()) {
      std::fputs(efms_to_text(result.modes, result.reaction_names).c_str(),
                 stdout);
    } else {
      std::ofstream out(output_path);
      out << efms_to_csv(result.modes, result.reaction_names);
      std::fprintf(stderr, "%zu modes written to %s\n", result.num_modes(),
                   output_path.c_str());
    }
    if (options.audit) {
      const auto audit = check::AuditLedger::global().snapshot();
      std::fprintf(stderr,
                   "audit: all invariants passed (%llu checks: "
                   "%llu nullspace products, %llu rank-nullity, "
                   "%llu minimality pairs, %llu partition, "
                   "%llu proposition-1, %llu pair-conservation)\n",
                   static_cast<unsigned long long>(audit.total_checks()),
                   static_cast<unsigned long long>(audit.nullspace_products),
                   static_cast<unsigned long long>(audit.rank_nullity_checks),
                   static_cast<unsigned long long>(audit.minimality_checks),
                   static_cast<unsigned long long>(audit.partition_checks),
                   static_cast<unsigned long long>(audit.proposition1_checks),
                   static_cast<unsigned long long>(
                       audit.pair_conservation_checks));
    }
    if (print_stats) {
      std::fprintf(stderr,
                   "modes: %s  candidate pairs: %s  rank tests: %s\n"
                   "reduced: %zux%zu  time: %s s%s\n",
                   with_commas(result.num_modes()).c_str(),
                   with_commas(result.stats.total_pairs_probed).c_str(),
                   with_commas(result.stats.total_rank_tests).c_str(),
                   result.reduced_metabolites, result.reduced_reactions,
                   seconds_str(result.seconds).c_str(),
                   result.used_bigint ? " (BigInt)" : "");
    }
  } catch (const CancelledError& e) {
    // Cooperative shutdown: everything completed so far is already in the
    // checkpoint file.  Flush the trace/report so the interrupted run is
    // still inspectable, point at --resume, exit resumable (75).
    if (!trace_path.empty()) {
      obs::install_trace(nullptr);
      recorder.write(trace_path);
    }
    if (!report_path.empty()) {
      EfmResult partial;
      auto& governor = resource::MemoryGovernor::global();
      partial.mem_limit_bytes = governor.limit();
      partial.mem_peak_bytes = governor.peak_usage();
      partial.spill_bytes = governor.spill_bytes();
      partial.spill_blocks = governor.spill_blocks();
      auto report = make_solve_report(partial, options, label);
      report.config["cancelled"] = "true";
      report.write(report_path);
      std::fprintf(stderr, "report written to %s\n", report_path.c_str());
    }
    std::fprintf(stderr, "cancelled: %s\n", e.what());
    const std::string resume_hint = !options.checkpoint_path.empty()
                                        ? options.checkpoint_path
                                        : options.resume_from;
    if (!resume_hint.empty()) {
      std::fprintf(stderr, "rerun with --resume %s to continue\n",
                   resume_hint.c_str());
    }
    return resource::kResumableExitCode;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Observability I/O failures (unwritable --trace/--report/--heartbeat
    // paths) surface as std::runtime_error; exit cleanly, not via abort.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
