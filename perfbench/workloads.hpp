// The three benchmark workloads and the metrics they report.
//
//   serial_solve  Algorithm 1, one thread, Network I minus R15/R33/R41.
//   dc_solve      Algorithm 3 (qsub 2, automatic partition) on 4 simulated
//                 ranks x 1 thread, same instance.
//   efm_queries   two closed-loop clients issuing a seeded stream of
//                 analysis calls against the 7-knockout demo mode set.
//
// An untraced run (trace = false) reports the end-to-end metrics; a traced
// run reports the per-layer metrics.  Both check every answer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = not written).
  std::string trace_path;
};

struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Throws std::invalid_argument for an unknown workload.
RunOutcome run_workload(const RunArgs& args);

/// Metric names (with units) a run reports: end-to-end when untraced,
/// per-layer when traced.  Every run reports every name of its list.
const std::vector<std::pair<std::string, std::string>>& metric_list(bool trace);

}  // namespace perfbench
