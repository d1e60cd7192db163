// elmo's top-level public API.
//
// One call — compute_efms — takes a metabolic Network and returns its full
// set of elementary flux modes in the original reaction space, computed by
// the chosen algorithm of the paper:
//
//   kSerial                 Algorithm 1 (serial Nullspace Algorithm)
//   kCombinatorialParallel  Algorithm 2 (distributed candidate generation
//                           over simulated message-passing ranks)
//   kCombined               Algorithm 3 (divide-and-conquer over a subset
//                           of reversible reactions x Algorithm 2)
//   kPartitioned            Algorithm 4 (matrix-partitioned ranks — the
//                           paper's future-work item #1: no full replica
//                           of the nullspace matrix on any rank)
//
// Arithmetic: the fast overflow-checked int64 kernel runs first; if any
// value exceeds 64 bits the computation transparently restarts with
// arbitrary-precision integers (EfmResult::used_bigint reports this).
// Every driver decides elementarity with one rank test, the sparse modular
// engine (nullspace/sparse_rank.hpp): accepts are certified, rejects are
// Monte-Carlo with error about 2^-45 per candidate; `audit` re-checks every
// accept with exact Bareiss elimination.
//
// Recovery is set by three values: `retry.max_attempts` and
// `retry.serial_final_attempt` (Algorithm 3's per-subset ladder, see
// core/retry.hpp) and `subset_deadline_seconds` (the watchdog deadline of
// every simulated world, scaled per Algorithm-3 subset by its estimate).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "compress/compression.hpp"
#include "core/retry.hpp"
#include "network/network.hpp"
#include "nullspace/initial_basis.hpp"
#include "nullspace/solver.hpp"
#include "nullspace/spill.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"

namespace elmo {

namespace mpsim {
struct FaultPlan;
}  // namespace mpsim

enum class Algorithm {
  kSerial,
  kCombinatorialParallel,
  kCombined,
  kPartitioned,
};

struct EfmOptions {
  Algorithm algorithm = Algorithm::kSerial;

  CompressionOptions compression;
  OrderingOptions ordering;

  /// Simulated compute ranks (Algorithms 2, 3 and 4).
  int num_ranks = 1;
  /// Shared-memory workers per rank (Algorithms 2 and 3) — the Blue Gene
  /// SMP/dual modes and Table II's "cores per node" column.
  int threads_per_rank = 1;

  /// Divide-and-conquer (Algorithm 3): explicit partition reactions by
  /// ORIGINAL network name, or automatic selection of `qsub` trailing
  /// reversible reactions when the list is empty.
  std::vector<std::string> partition_reactions;
  std::size_t qsub = 2;

  /// Per-rank memory budget in bytes (0 = unlimited); exceeded budgets
  /// throw MemoryBudgetError (Algorithm 2) or trigger adaptive re-splits
  /// (Algorithm 3, if max_extra_splits > 0).
  std::size_t memory_budget_per_rank = 0;
  std::size_t max_extra_splits = 0;

  /// Process-wide memory limit in bytes enforced by the MemoryGovernor
  /// (elmo_cli --mem-limit; 0 = ungoverned).  Busting the limit while the
  /// resident charge alone exceeds it throws ResourceError — retryable, so
  /// Algorithm 3 degrades (smaller tiles, spill-always, serial) instead of
  /// dying.  Crossing the half-limit watermark switches candidate
  /// generation out-of-core when `spill.enabled` is set.
  std::size_t mem_limit_bytes = 0;
  /// Out-of-core candidate spill policy (see nullspace/spill.hpp).
  SpillPolicy spill;
  /// Watchdog deadline in seconds per simulated world (Algorithms 2-4;
  /// one world per subset under Algorithm 3), 0 = unsupervised.  A world
  /// gets a soft deadline (straggler diagnosis) at half this value and a
  /// hard and a stall deadline (abort, and under Algorithm 3 re-queue with
  /// a split) at the full value.  Algorithm 3 predicts each subset's cost
  /// once (core/estimate.hpp prefix run, skipped for resumed subsets) and
  /// widens a heavier-than-median subset's soft and hard deadlines by up to
  /// 16x, so a legitimately heavy subset is not punished by a budget sized
  /// for the typical one.
  double subset_deadline_seconds = 0.0;

  /// Skip the int64 kernel and compute in BigInt directly.
  bool force_bigint = false;

  /// Per-subset retry behaviour (Algorithm 3).
  RetryPolicy retry;
  /// Deterministic fault injection for the simulated ranks (Algorithms
  /// 2-4); shared so trigger state persists across worlds and retries.
  std::shared_ptr<mpsim::FaultPlan> fault_plan;
  /// Algorithm 3: append a record per completed subset to this file.
  std::string checkpoint_path;
  /// Algorithm 3: skip subsets already completed in this checkpoint.
  std::string resume_from;

  /// Progress observer, invoked per iteration (from a worker thread for
  /// the parallel algorithms; under Algorithm 3 from several at once, one
  /// per running subset).
  std::function<void(const IterationStats&)> on_iteration;

  /// Subset observer (Algorithm 3), invoked once per committed subset —
  /// computed or resumed — with its label, EFM count, and wall seconds.
  /// Unlike on_iteration it is never throttled downstream, so drivers can
  /// rely on exactly one notification per partition.
  std::function<void(const std::string&, std::size_t, double)> on_subset;

  /// Keep the per-iteration history on the returned stats (the run
  /// report's column-growth curve).  One IterationStats per row processed.
  bool record_history = false;

  /// Runtime invariant auditing (elmo_cli --audit): re-verify S*R = 0 after
  /// every iteration, exact rank-nullity of accepted candidates, support
  /// minimality of the final set, bitwise disjointness + exact coverage of
  /// Algorithm 3's subset patterns, and pair-count conservation across the
  /// simulated ranks.  Opt-in; failures throw check::ContractViolation.
  bool audit = false;
};

/// Per-subset summary of an Algorithm 3 run (one row of Tables III/IV).
struct SubsetSummary {
  std::string label;
  std::size_t num_efms = 0;
  std::uint64_t candidate_pairs = 0;
  double seconds = 0.0;
  double gen_cand_seconds = 0.0;
  double rank_test_seconds = 0.0;
  double communicate_seconds = 0.0;
  double merge_seconds = 0.0;
  std::size_t extra_splits = 0;
  /// Attempts the subset took under the retry policy (1 = clean first try).
  std::size_t attempts = 1;
  /// True if the subset was recovered from `resume_from`, not recomputed.
  bool resumed = false;
  /// Per-rank traffic + timing breakdown (empty for resumed subsets).
  std::vector<obs::RankEntry> ranks;
};

struct EfmResult {
  /// The elementary flux modes in the ORIGINAL reaction space: primitive
  /// integer vectors, canonically oriented, sorted, duplicate-free.
  std::vector<std::vector<BigInt>> modes;
  /// Row labels of `modes` entries (original reaction order).
  std::vector<std::string> reaction_names;

  SolveStats stats;
  CompressionStats compression_stats;
  std::size_t reduced_reactions = 0;
  std::size_t reduced_metabolites = 0;

  /// Algorithm 3 only: one entry per completed subset.
  std::vector<SubsetSummary> subsets;

  /// Total simulated message traffic (Algorithms 2 and 3).
  std::uint64_t message_bytes = 0;
  /// Largest per-rank memory footprint observed (Algorithms 2 and 3).
  std::size_t peak_rank_memory = 0;

  double seconds = 0.0;
  bool used_bigint = false;

  /// Resource-governance ledger for the run (MemoryGovernor): configured
  /// limit (0 = ungoverned), peak charged bytes, and the out-of-core spill
  /// volume (bytes / blocks written; 0 when nothing spilled).
  std::size_t mem_limit_bytes = 0;
  std::size_t mem_peak_bytes = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_blocks = 0;

  /// Failed subset attempts re-queued by the retry policy (Algorithm 3).
  std::size_t total_retries = 0;

  /// Per-rank breakdown of the solve (Algorithms 2 and 4; Algorithm 3
  /// reports ranks per subset instead).
  std::vector<obs::RankEntry> ranks;
  /// Timeline of notable events — retries, re-splits, checkpoints,
  /// resumes (Algorithm 3).
  std::vector<obs::TimelineEvent> events;

  [[nodiscard]] std::size_t num_modes() const { return modes.size(); }
};

/// Compute all elementary flux modes of `network`.
EfmResult compute_efms(const Network& network, const EfmOptions& options = {});

/// Compute EFMs of an already-compressed problem (drivers that reuse one
/// compression across several runs, e.g. the benchmark harness).
EfmResult compute_efms(const CompressedProblem& compressed,
                       const std::vector<bool>& original_reversibility,
                       const EfmOptions& options = {});

/// Reduced columns of Algorithm 3's partition reactions, named in the
/// ORIGINAL network: a reaction compression merged maps to its
/// representative's column.  The one mapping compute_efms and elmo_cli's
/// estimate use; throws if compression removed a reaction (forced zero
/// flux).
std::vector<std::size_t> partition_columns(
    const CompressedProblem& compressed,
    const std::vector<std::string>& original_names);

/// Human-readable name of an algorithm ("serial", "parallel", "combined",
/// "partitioned").
const char* algorithm_name(Algorithm algorithm);

/// Assemble the machine-readable run report for a finished solve
/// (elmo_cli --report; the totals mirror `result.stats` exactly).
obs::SolveReport make_solve_report(const EfmResult& result,
                                   const EfmOptions& options,
                                   const std::string& network_label);

}  // namespace elmo
