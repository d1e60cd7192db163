// Per-run report document ("report.json").
//
// A SolveReport is the machine-readable record of one EFM computation:
// configuration, totals, per-phase wall-clock, per-rank communication and
// timing breakdowns, the divide-and-conquer subset table, the per-iteration
// column-growth history, and a timeline of notable events (faults, retries,
// re-splits, checkpoints).  elmo_cli --report writes one after every solve;
// tests parse it back and cross-check the totals against the returned
// SolveStats.
//
// The structs here are deliberately neutral (plain maps and vectors of
// numbers): obs sits below nullspace/core in the layering, so the adapter
// that fills a SolveReport from an EfmResult lives up in core/api.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/flow.hpp"
#include "obs/json.hpp"

namespace elmo::obs {

/// One simulated MPI rank's contribution (Algorithms 2-4).
struct RankEntry {
  /// The rank's id in the whole run: Algorithm 3's concurrent subsets
  /// each run a world numbered from 0 on different ranks of the run.
  int rank = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t collectives = 0;
  std::uint64_t memory_peak_bytes = 0;
  /// Candidate bytes this rank wrote out-of-core (0 when nothing spilled).
  std::uint64_t spill_bytes = 0;
  /// Blocked-wait breakdown from the mpsim runtime (microseconds).
  std::uint64_t wait_data_us = 0;
  std::uint64_t wait_barrier_us = 0;
  std::uint64_t wait_straggler_us = 0;
  /// Peak undelivered-message depth of this rank's inbox.
  std::uint64_t max_queue_depth = 0;
  std::map<std::string, double> phase_seconds;
};

/// One outer-loop iteration of the nullspace algorithm (column-growth
/// history; mirrors nullspace::IterationStats field for field).
struct IterationEntry {
  std::int64_t row = 0;
  std::uint64_t positives = 0;
  std::uint64_t negatives = 0;
  std::uint64_t pairs_probed = 0;
  std::uint64_t pretest_survivors = 0;
  std::uint64_t duplicates_removed = 0;
  std::uint64_t rank_tests = 0;
  std::uint64_t accepted = 0;
  std::uint64_t columns_after = 0;
};

/// A notable moment in the run: fault injected, retry, re-split,
/// checkpoint written, subset resumed...
struct TimelineEvent {
  double t_seconds = 0.0;
  std::string kind;
  std::string detail;
};

/// One divide-and-conquer subset (Algorithm 3).
struct SubsetEntry {
  std::string label;
  std::uint64_t num_efms = 0;
  double seconds = 0.0;
  int attempts = 1;
  int extra_splits = 0;
  bool resumed = false;
  std::map<std::string, std::uint64_t> totals;
  std::map<std::string, double> phase_seconds;
  std::vector<RankEntry> ranks;
};

struct SolveReport {
  // Configuration.
  std::string network;
  std::string algorithm;
  int num_ranks = 1;
  std::map<std::string, std::string> config;

  // Outcome.
  std::uint64_t num_efms = 0;
  double seconds = 0.0;

  // Solver totals (pairs_probed, rank_tests, accepted, ...), kept as a map
  // so the report does not chase every SolveStats field addition.
  std::map<std::string, std::uint64_t> totals;
  std::uint64_t peak_columns = 0;
  std::uint64_t peak_matrix_bytes = 0;
  bool bigint_fallback = false;
  std::map<std::string, double> phase_seconds;

  // Breakdowns.
  std::vector<RankEntry> ranks;
  std::vector<SubsetEntry> subsets;
  std::vector<IterationEntry> iterations;
  std::vector<TimelineEvent> events;

  // Process peak RSS at report time (VmHWM; 0 where unavailable).
  std::uint64_t peak_rss_bytes = 0;
  // Current RSS at report time (VmRSS; 0 where unavailable).
  std::uint64_t rss_bytes = 0;

  // Message-flow, wait-class, and critical-path attribution (the "flow"
  // object in the JSON); see obs/flow.hpp.  Filled by analyze_flow() after
  // the solve; default-constructed (all zeros) when never analyzed.
  FlowSummary flow;

  // Resource-governance ledger ("resource" object in the JSON): configured
  // --mem-limit, peak bytes charged to the MemoryGovernor, and total
  // out-of-core spill volume.  All 0 for ungoverned runs with no spill.
  std::uint64_t mem_limit_bytes = 0;
  std::uint64_t mem_peak_bytes = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_blocks = 0;

  [[nodiscard]] JsonValue to_json() const;

  /// Write to_json().dump(2) to `path`; throws std::runtime_error on I/O
  /// failure.
  void write(const std::string& path) const;
};

/// Best-effort process peak resident set size in bytes (Linux VmHWM from
/// /proc/self/status); returns 0 when the value cannot be determined.
[[nodiscard]] std::uint64_t process_peak_rss_bytes();

/// Best-effort CURRENT process resident set size in bytes (Linux VmRSS
/// from /proc/self/status); returns 0 when the value cannot be determined.
[[nodiscard]] std::uint64_t process_current_rss_bytes();

}  // namespace elmo::obs
