// Algorithm 3: the combined parallel Nullspace Algorithm — the paper's
// contribution.
//
// The EFM set is partitioned across a subset of qsub (reversible, trailing)
// reactions into 2^qsub disjoint subsets keyed by the zero/nonzero flux
// pattern = the binary representation of the subset id.  For each subset:
//
//   * zero-flux reactions are REMOVED from the stoichiometry (their columns
//     vanish; paper Algorithm 3 lines 5-9),
//   * nonzero-flux reactions are left UNPROCESSED (exclude_rows — the
//     paper's reorder-to-bottom + early stop, lines 10-14),
//   * Algorithm 2 runs on the subproblem,
//   * Proposition 1 keeps exactly the columns with nonzero values in every
//     unprocessed partition row (lines 15-17),
//   * the zero-flux rows are re-inserted as zeros (lines 18-21).
//
// The union over all subsets is the complete EFM set.
//
// Proposition 1 makes the subsets independent, so the driver schedules
// them over num_ranks ranks instead of running them one after another:
// a task (one subset attempt) gets max(1, free ranks / queued tasks) ranks
// when it is dispatched, largest cost hint first when hints exist.  With
// at least as many subsets as ranks every group has one rank — a one-rank
// world runs on its task's thread and exchanges nothing — and a single
// subset gets every rank, Algorithm 2 as the paper runs it.  Results are
// folded in subset-id order, so nothing depends on which subset finishes
// first.
//
// When a subset exceeds the per-rank memory budget the optional adaptive
// re-split adds one more partition reaction to just that subset and
// recurses — this is precisely what the paper did on Network II, where
// subsets 1 and 3 of the {R54r, R90r, R60r} split had to be re-split by
// R22r (Table IV).
//
// Fault tolerance: each subset is an independent, restartable unit of
// work.  One classifier (detail::classify_failure) decides what a failed
// attempt does: re-split, degrade, retry under the RetryPolicy (optionally
// finishing serially) or propagate.  A subset's watchdog deadline scales
// with its predicted cost, computed once when the subset is queued.
// Completed subsets can be appended to a checkpoint file and a later run
// with resume_from skips them, bit-identically.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "check/check.hpp"
#include "core/checkpoint.hpp"
#include "core/combinatorial_parallel.hpp"
#include "core/retry.hpp"
#include "core/subset_select.hpp"
#include "mpsim/communicator.hpp"
#include "mpsim/fault.hpp"
#include "nullspace/efm.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "resource/shutdown.hpp"
#include "resource/watchdog.hpp"
#include "support/timer.hpp"

namespace elmo {

struct SubsetSpec;

struct CombinedOptions {
  /// Reduced-problem reaction names to partition over, most significant
  /// first (subset id bit k corresponds to partition_reactions[k] counted
  /// from the least significant bit).  All must be reversible.  When empty,
  /// `qsub` trailing reversible reactions are selected automatically.
  std::vector<std::string> partition_reactions;
  /// Used only when partition_reactions is empty.
  std::size_t qsub = 2;

  int num_ranks = 4;
  /// Shared-memory workers per rank (see ParallelOptions::threads_per_rank).
  int threads_per_rank = 1;
  SolverOptions solver;
  std::size_t memory_budget_per_rank = 0;

  /// On MemoryBudgetError, split the failing subset further by appending
  /// the next unused trailing reversible reaction, up to this many extra
  /// reactions (0 disables re-splitting and the error propagates).
  std::size_t max_extra_splits = 0;

  /// Per-subset retry behaviour for transient failures (rank crashes,
  /// corrupted payloads) and for budget exhaustion past max_extra_splits.
  RetryPolicy retry;
  /// Deterministic fault injection shared by every world this run spawns.
  std::shared_ptr<mpsim::FaultPlan> fault_plan;
  /// When non-empty, append a record per completed subset to this file.
  std::string checkpoint_path;
  /// When non-empty, load this checkpoint and skip its completed subsets.
  std::string resume_from;

  /// Watchdog supervision of each subset's world (soft = straggler
  /// diagnosis, hard/stall = abort + re-queue-with-split).  When
  /// subset_cost_hint is set, soft/hard deadlines scale per subset with
  /// its predicted cost relative to the median initial subset (clamped to
  /// 1..16, so scaling only widens), so a legitimately heavy subset is not
  /// punished by a budget sized for the typical one.
  resource::Deadlines subset_deadlines;
  /// Cost model: predicted candidate pairs (or any monotone cost proxy)
  /// for a subset, called once per queued subset that is not resumed, and
  /// only when a deadline is set.  The predictions also order dispatch,
  /// largest first.  Wired by the API layer from
  /// core/estimate.hpp (which cannot be included here — it includes this
  /// header).
  std::function<double(const SubsetSpec&)> subset_cost_hint;

  /// Invoked once per committed subset (computed or resumed) with its
  /// label, EFM count, and wall seconds, on the calling thread, one call
  /// at a time.  Never throttled — progress reporting uses this so even a
  /// subset that finishes inside one heartbeat interval leaves a record.
  std::function<void(const std::string&, std::size_t, double)> on_subset;
};

/// One divide-and-conquer subtask: (reduced reaction index, must-be-nonzero)
/// per partition reaction.
struct SubsetSpec {
  std::vector<std::pair<std::size_t, bool>> pattern;

  /// Render as the paper does: overlined (zero-flux) names are suffixed
  /// with '0', nonzero ones with '+', e.g. "R89r:0 R74r:+".
  [[nodiscard]] std::string label(
      const std::vector<std::string>& names) const {
    std::string out;
    for (const auto& [row, nonzero] : pattern) {
      if (!out.empty()) out += ' ';
      out += names[row];
      out += nonzero ? ":+" : ":0";
    }
    return out;
  }
};

struct SubsetReport {
  SubsetSpec spec;
  std::string label;
  std::size_t num_efms = 0;
  SolveStats stats;
  mpsim::RunReport ranks;
  double seconds = 0.0;
  /// Number of extra partition reactions this subset needed (adaptive).
  std::size_t extra_splits = 0;
  /// How many attempts the subset took (1 = first try succeeded).
  std::size_t attempts = 1;
  /// True if the subset was recovered from a checkpoint, not computed.
  bool resumed = false;
  /// Each simulated rank's own solver ledger (empty for resumed subsets).
  std::vector<SolveStats> rank_stats;
  /// The driver-wide ids of the ranks the subset ran on, in world rank
  /// order (empty for resumed subsets).  Concurrent subsets each number
  /// their own world from 0; these ids tell their ranks apart.
  std::vector<int> rank_ids;
};

template <typename Scalar, typename Support>
struct CombinedResult {
  /// Union of all subset EFM sets, in the reduced reaction space.
  std::vector<FluxColumn<Scalar, Support>> columns;
  std::vector<SubsetReport> subsets;
  SolveStats total;
  double seconds = 0.0;
  /// Failed subset attempts that were re-queued under the retry policy.
  std::size_t total_retries = 0;
  /// Timeline of notable moments (retries, re-splits, checkpoints,
  /// resumes), timestamped relative to the start of solve_combined.
  std::vector<obs::TimelineEvent> events;
};

namespace detail {

/// Build the subproblem for one subset: remove zero-flux columns, record
/// the sub-index of every nonzero-flux row.
template <typename Scalar>
struct Subproblem {
  EfmProblem<Scalar> problem;
  std::vector<std::size_t> keep;          // sub col -> original reduced col
  std::vector<std::size_t> nzf_sub_rows;  // nonzero rows, sub numbering
};

template <typename Scalar>
Subproblem<Scalar> make_subproblem(const EfmProblem<Scalar>& problem,
                                   const SubsetSpec& spec) {
  std::vector<bool> removed(problem.num_reactions(), false);
  std::vector<bool> nonzero(problem.num_reactions(), false);
  for (const auto& [row, nz] : spec.pattern) {
    ELMO_REQUIRE(problem.reversible[row],
                 "partition reaction " + problem.reaction_names[row] +
                     " must be reversible (Proposition 1 requires the "
                     "unprocessed rows to be sign-free)");
    if (nz)
      nonzero[row] = true;
    else
      removed[row] = true;
  }
  Subproblem<Scalar> sub;
  for (std::size_t j = 0; j < problem.num_reactions(); ++j) {
    if (removed[j]) continue;
    if (nonzero[j]) sub.nzf_sub_rows.push_back(sub.keep.size());
    sub.keep.push_back(j);
  }
  sub.problem.stoichiometry = problem.stoichiometry.select_columns(sub.keep);
  for (std::size_t j : sub.keep) {
    sub.problem.reversible.push_back(problem.reversible[j]);
    sub.problem.reaction_names.push_back(problem.reaction_names[j]);
  }
  return sub;
}

/// What the driver does with one failed subset attempt.
struct Recovery {
  bool retry = false;    // re-queue under the RetryPolicy (else propagate)
  bool resplit = false;  // first split on the next spare reaction, if any
  bool degrade = false;  // retry with smaller tiles and spill
};

template <typename Failure>
bool is_a(const std::exception& e) {
  return dynamic_cast<const Failure*>(&e) != nullptr;
}

/// The one failure classifier: budget, resource and deadline errors
/// re-split first, resource errors also degrade, and those three plus
/// world aborts, injected crashes and corrupted payloads are retried.
/// Everything else propagates — CancelledError from a shutdown request,
/// OverflowError for the API's BigInt restart, and genuine bugs.
inline Recovery classify_failure(const std::exception& e) {
  const bool resource = is_a<ResourceError>(e);
  const bool resplit = resource || is_a<MemoryBudgetError>(e) ||
                       is_a<DeadlineExceededError>(e);
  const bool transient = is_a<mpsim::AbortedError>(e) ||
                         is_a<mpsim::InjectedFaultError>(e) ||
                         is_a<CorruptPayloadError>(e);
  return {resplit || transient, resplit, resource};
}

}  // namespace detail

template <typename Scalar, typename Support>
CombinedResult<Scalar, Support> solve_combined(
    const EfmProblem<Scalar>& problem, const CombinedOptions& options) {
  ELMO_REQUIRE(options.num_ranks >= 1, "num_ranks must be positive");
  Stopwatch total_watch;
  CombinedResult<Scalar, Support> result;

  // Timeline + instant-event recorder: one line in the run report, one
  // instant in the trace (when tracing is on), one counter bump.
  auto note_event = [&](const char* kind, std::string detail,
                        const obs::Counter& counter) {
    counter.add(1);
    obs::trace_instant(kind, "combined", detail);
    result.events.push_back(
        obs::TimelineEvent{total_watch.seconds(), kind, std::move(detail)});
  };
  auto& registry = obs::Registry::global();
  static const obs::Counter retries_counter =
      registry.counter("combined.retries");
  static const obs::Counter resplits_counter =
      registry.counter("combined.resplits");
  static const obs::Counter checkpoints_counter =
      registry.counter("combined.checkpoints");
  static const obs::Counter resumed_counter =
      registry.counter("combined.subsets_resumed");
  static const obs::Counter subsets_counter =
      registry.counter("combined.subsets_solved");
  static const obs::Counter cancelled_counter =
      registry.counter("combined.cancelled");

  // Resolve the partition reactions.
  std::vector<std::size_t> partition_rows;
  if (options.partition_reactions.empty()) {
    partition_rows = select_partition_rows(problem, options.solver.ordering,
                                           options.qsub);
  } else {
    for (const auto& name : options.partition_reactions) {
      std::size_t row = problem.num_reactions();
      for (std::size_t j = 0; j < problem.num_reactions(); ++j) {
        if (problem.reaction_names[j] == name) {
          row = j;
          break;
        }
      }
      ELMO_REQUIRE(row < problem.num_reactions(),
                   "partition reaction not in reduced problem: " + name);
      partition_rows.push_back(row);
    }
  }
  const std::size_t qsub = partition_rows.size();
  ELMO_REQUIRE(qsub > 0 && qsub < 63, "unreasonable partition subset size");

  // Trailing reversible reactions available for adaptive re-splitting.
  // Best effort: a network with few reversible reactions simply yields
  // fewer spares, and budget errors past the available depth fall through
  // to the retry ladder instead of failing at setup.
  std::vector<std::size_t> spares;
  if (options.max_extra_splits > 0) {
    auto trailing = select_partition_rows_up_to(
        problem, options.solver.ordering, qsub + options.max_extra_splits);
    for (std::size_t row : trailing) {
      bool used = false;
      for (std::size_t p : partition_rows) used = used || p == row;
      if (!used) spares.push_back(row);
    }
  }

  // Subsets already completed by an earlier, interrupted run.  Keyed by
  // the full pattern (including adaptive extra splits); last record wins
  // so a file holding a retried subset twice resumes from the newest.
  std::map<std::vector<std::pair<std::uint64_t, bool>>, CheckpointRecord>
      completed;
  if (!options.resume_from.empty()) {
    // A writer killed mid-append leaves a damaged tail, and load_checkpoint
    // stops silently at the first unreadable frame — repairing first trims
    // the file to its last intact frame so the resume set is everything
    // that actually committed, not a prefix cut short by garbage bytes.
    repair_checkpoint(options.resume_from);
    for (auto& record : load_checkpoint(options.resume_from))
      completed[record.pattern] = std::move(record);
  }
  // The same damaged tail would strand this run's appended records behind
  // unreadable bytes, so trim the write-side file too before the first
  // commit of this run (it may differ from resume_from).
  if (!options.checkpoint_path.empty())
    repair_checkpoint(options.checkpoint_path);

  auto checkpoint_key = [](const SubsetSpec& spec) {
    std::vector<std::pair<std::uint64_t, bool>> key;
    for (const auto& [row, nz] : spec.pattern) key.emplace_back(row, nz);
    return key;
  };

  // Estimate-based deadline scaling (Braunstein et al.: predict a subset's
  // demand before committing to it).  A subset's cost is predicted once,
  // when it is queued, and rides on its Task through every retry; subsets
  // the checkpoint already holds are never queued, so never predicted.
  // The estimator runs only for deadlines: ordering alone does not pay for
  // it.
  bool predict_costs =
      options.subset_cost_hint && options.subset_deadlines.any();
  auto cost_hint = [&](const SubsetSpec& spec) {
    return predict_costs ? options.subset_cost_hint(spec) : 0.0;
  };

  // Work queue of subtasks; adaptive re-splitting pushes refined subsets,
  // the retry policy re-queues failed ones with a higher attempt count.
  struct Task {
    SubsetSpec spec;
    std::size_t attempt = 1;
    /// Retrying after resource exhaustion: apply the degrade ladder
    /// (halve the candidate tile, then spill-always, then serial).
    bool degrade = false;
    /// Predicted cost (0 = none): dispatch order and deadline scaling.
    double cost_hint = 0.0;
  };
  /// A committed subset, folded into the result once every task joined.
  struct Committed {
    SubsetReport report;
    std::vector<FluxColumn<Scalar, Support>> columns;
  };
  std::deque<Task> queue;
  std::vector<Committed> committed;

  // Queue a subset, or commit it at once when the checkpoint holds it:
  // re-materialise the stored BigInt modes in this run's scalar type
  // instead of recomputing the subset.
  auto enqueue = [&](SubsetSpec spec) {
    auto it = completed.find(checkpoint_key(spec));
    if (it == completed.end()) {
      const double hint = cost_hint(spec);
      queue.push_back(Task{std::move(spec), 1, false, hint});
      return;
    }
    const CheckpointRecord& record = it->second;
    Committed done;
    SubsetReport& report = done.report;
    report.spec = spec;
    report.label = spec.label(problem.reaction_names);
    report.num_efms = record.modes.size();
    report.stats.total_pairs_probed = record.candidate_pairs;
    report.seconds = record.seconds;
    report.extra_splits = record.extra_splits;
    report.attempts = static_cast<std::size_t>(record.attempts);
    report.resumed = true;
    note_event("resume", report.label, resumed_counter);
    for (const auto& mode : record.modes) {
      std::vector<Scalar> values;
      values.reserve(mode.size());
      for (const auto& v : mode)
        values.push_back(scalar_from_bigint<Scalar>(v));
      done.columns.push_back(
          FluxColumn<Scalar, Support>::from_values(std::move(values)));
    }
    if (options.solver.audit) {
      // Checkpointed modes must still honour their subset's zero/nonzero
      // pattern — guards against stale or corrupted checkpoint files.
      check::InvariantAuditor{}.check_proposition1(
          done.columns, spec.pattern, "resumed subset " + report.label);
    }
    if (options.on_subset)
      options.on_subset(report.label, report.num_efms, report.seconds);
    committed.push_back(std::move(done));
  };
  for (std::uint64_t id = 0; id < (1ULL << qsub); ++id) {
    SubsetSpec spec;
    for (std::size_t k = 0; k < qsub; ++k)
      spec.pattern.emplace_back(partition_rows[k], (id >> k) & 1);
    enqueue(std::move(spec));
  }
  // The median initial subset is the unit the configured deadlines budget
  // for; without one, nothing scales and re-split subsets skip prediction.
  std::vector<double> hints;
  for (const Task& task : queue)
    if (task.cost_hint > 0) hints.push_back(task.cost_hint);
  double median_cost_hint = 0.0;
  if (!hints.empty()) {
    std::nth_element(hints.begin(), hints.begin() + hints.size() / 2,
                     hints.end());
    median_cost_hint = hints[hints.size() / 2];
  }
  predict_costs = median_cost_hint > 0;

  const auto max_attempts =
      static_cast<std::size_t>(std::max(1, options.retry.max_attempts));
  // Attempt shaping: run the last permitted attempt serially — one rank,
  // no budget, no fault plan — so the ladder always has a clean exit.
  auto serial_attempt = [&](const Task& task) {
    return options.retry.serial_final_attempt && task.attempt >= max_attempts &&
           max_attempts > 1;
  };

  // One attempt at one subset on the group of ranks `rank_ids`.  Runs on
  // the task's own thread (rank 0 of its world) and reads no driver state
  // that the scheduler writes.
  auto run_subset = [&](const Task& task, const std::vector<int>& rank_ids) {
    const SubsetSpec& spec = task.spec;
    Committed done;
    SubsetReport& report = done.report;
    report.spec = spec;
    report.label = spec.label(problem.reaction_names);
    report.rank_ids = rank_ids;
    if (obs::trace() != nullptr)
      obs::set_current_thread_name("subset " + report.label);
    // One span per subset ATTEMPT (failed attempts get their own spans);
    // the label identifies the subset, Perfetto shows the retry pattern.
    obs::TraceSpan subset_span(
        "subset", "combined",
        obs::trace() != nullptr ? report.label : std::string());
    Stopwatch subset_watch;
    auto sub = detail::make_subproblem<Scalar>(problem, spec);
    ParallelOptions parallel = {};
    parallel.num_ranks = static_cast<int>(rank_ids.size());
    parallel.threads_per_rank = options.threads_per_rank;
    parallel.solver = options.solver;
    parallel.solver.exclude_rows = sub.nzf_sub_rows;
    parallel.memory_budget_per_rank = options.memory_budget_per_rank;
    parallel.fault_plan = options.fault_plan;

    // Watchdog deadlines for this subset's world, scaled by its predicted
    // cost relative to the median subset when a cost model is wired.
    parallel.deadlines = options.subset_deadlines;
    if (median_cost_hint > 0 && task.cost_hint > 0) {
      const double scale =
          std::clamp(task.cost_hint / median_cost_hint, 1.0, 16.0);
      parallel.deadlines.soft_seconds *= scale;
      parallel.deadlines.hard_seconds *= scale;
    }
    if (task.degrade && task.attempt > 1) {
      // Resource degrade ladder (ResourceError / bad_alloc): each retry
      // halves block_ref_cap again, which bounds the support table's
      // rejected entries and sizes the out-of-core chunks; from the second
      // retry on, every chunk goes out-of-core unconditionally.
      parallel.solver.block_ref_cap = std::max<std::size_t>(
          std::size_t{1} << 12,
          options.solver.block_ref_cap >> (task.attempt - 1));
      parallel.solver.spill.enabled = true;
      if (task.attempt >= 3) parallel.solver.spill.always = true;
    }
    if (serial_attempt(task)) {
      parallel.threads_per_rank = 1;
      parallel.memory_budget_per_rank = 0;
      parallel.fault_plan = nullptr;
      // The ladder's clean exit must not fail on governance either:
      // complete slowly (spilling if asked) rather than not at all.
      parallel.solver.ignore_mem_limit = true;
      parallel.deadlines = {};
    }

    auto solved =
        solve_combinatorial_parallel<Scalar, Support>(sub.problem, parallel);

    // Proposition 1: keep columns with nonzero flux in EVERY unprocessed
    // partition row; re-embed into the full reduced space with zeros in
    // the removed columns.
    report.stats = std::move(solved.stats);
    report.ranks = std::move(solved.ranks);
    report.rank_stats = std::move(solved.per_rank);
    report.extra_splits = spec.pattern.size() - qsub;
    report.attempts = task.attempt;
    for (auto& column : solved.columns) {
      bool keep = true;
      for (std::size_t sub_row : sub.nzf_sub_rows)
        keep = keep && !scalar_is_zero(column.values[sub_row]);
      if (!keep) continue;
      std::vector<Scalar> full(problem.num_reactions(),
                               scalar_from_i64<Scalar>(0));
      for (std::size_t j = 0; j < sub.keep.size(); ++j)
        full[sub.keep[j]] = std::move(column.values[j]);
      done.columns.push_back(
          FluxColumn<Scalar, Support>::from_values(std::move(full)));
      ++report.num_efms;
    }
    report.seconds = subset_watch.seconds();

    if (options.solver.audit) {
      // Proposition 1, re-checked from first principles: every reported
      // column has nonzero flux on all nonzero-pattern rows and exact
      // zeros on all removed rows (the filter above and the re-embedding
      // must agree with the subset's defining pattern).
      check::InvariantAuditor{}.check_proposition1(
          done.columns, spec.pattern, "subset " + report.label);
    }
    return done;
  };

  // Re-split this subset on the next spare reaction (paper Table IV: the
  // oversized three-reaction subsets gained R22r as a fourth).  Returns
  // false when the re-split headroom is exhausted — then the retry ladder
  // takes over.
  auto try_resplit = [&](const SubsetSpec& spec) -> bool {
    const std::size_t depth = spec.pattern.size() - qsub;
    if (depth >= options.max_extra_splits || depth >= spares.size())
      return false;
    const std::size_t extra = spares[depth];
    note_event("resplit",
               spec.label(problem.reaction_names) + " + " +
                   problem.reaction_names[extra],
               resplits_counter);
    for (bool nz : {false, true}) {
      SubsetSpec refined = spec;
      refined.pattern.emplace_back(extra, nz);
      enqueue(std::move(refined));
    }
    return true;
  };
  // Re-queue the subset with a bumped attempt count, or exhaust the
  // ladder.  Only valid inside a catch block (rethrows when
  // max_attempts == 1).  `degrade` marks the retry as a resource retry so
  // attempt shaping applies the degrade ladder.
  auto requeue_or_throw = [&](const Task& task, const std::string& what,
                              bool degrade) {
    const std::string label = task.spec.label(problem.reaction_names);
    if (task.attempt >= max_attempts) {
      if (max_attempts > 1)
        throw RetryExhaustedError(label, static_cast<int>(task.attempt),
                                  what);
      throw;
    }
    ++result.total_retries;
    note_event("retry",
               label + ": " + what + " (attempt " +
                   std::to_string(task.attempt) + ")",
               retries_counter);
    queue.push_back(Task{task.spec, task.attempt + 1,
                         degrade || task.degrade, task.cost_hint});
  };
  // A failed attempt is classified once: re-split, re-queue, or throw what
  // propagates.
  auto recover = [&](const Task& task, const std::exception_ptr& error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      const detail::Recovery recovery = detail::classify_failure(e);
      if (!recovery.retry) throw;
      if (recovery.resplit && try_resplit(task.spec)) return;
      requeue_or_throw(task, e.what(), recovery.degrade);
    }
  };
  auto commit = [&](Committed done) {
    const SubsetReport& report = done.report;
    if (!options.checkpoint_path.empty()) {
      CheckpointRecord record;
      record.pattern = checkpoint_key(report.spec);
      record.modes = columns_to_bigint(done.columns);
      record.candidate_pairs = report.stats.total_pairs_probed;
      record.seconds = report.seconds;
      record.extra_splits = report.extra_splits;
      record.attempts = report.attempts;
      append_checkpoint_record(options.checkpoint_path, record);
      note_event("checkpoint", report.label, checkpoints_counter);
    }
    subsets_counter.add(1);
    if (options.on_subset)
      options.on_subset(report.label, report.num_efms, report.seconds);
    committed.push_back(std::move(done));
  };

  // The scheduler.  Each task runs on its own thread with a group of
  // max(1, free ranks / queued tasks) ranks (one for a serial attempt),
  // largest cost hint first; the group is the lowest free rank ids, which
  // the subset report keeps.  That thread is rank 0 of the task's world,
  // so the tasks never hold more than num_ranks solver threads.  Outcomes
  // come back to this thread, which alone touches the queue, the result
  // and the checkpoint: commits and on_subset calls happen here, one at a
  // time, as each subset finishes.  After the first error that propagates
  // nothing more is dispatched; running subsets finish and commit, then
  // the error is rethrown.
  struct Outcome {
    Task task;
    std::vector<int> rank_ids;
    std::list<std::thread>::iterator thread;
    std::optional<Committed> done;
    std::exception_ptr error;
  };
  std::mutex outcomes_mutex;
  std::condition_variable outcome_ready;
  std::vector<Outcome> outcomes;  // guarded by outcomes_mutex
  std::list<std::thread> running;
  std::vector<bool> rank_busy(static_cast<std::size_t>(options.num_ranks));
  auto free_ranks = [&] {
    return static_cast<int>(
        std::count(rank_busy.begin(), rank_busy.end(), false));
  };
  std::exception_ptr first_error;
  auto keep_first_error = [&] {
    if (!first_error) first_error = std::current_exception();
  };
  auto dispatch = [&] {
    while (!first_error && !queue.empty() && free_ranks() > 0) {
      if (resource::shutdown_requested()) {
        // Cooperative cancellation between subsets: everything committed
        // is already checkpointed, so a --resume run loses nothing.
        note_event("cancelled",
                   "shutdown requested; " +
                       std::to_string(committed.size()) +
                       " subset(s) committed",
                   cancelled_counter);
        resource::throw_if_shutdown_requested("combined driver");
      }
      auto next = std::max_element(
          queue.begin(), queue.end(), [](const Task& a, const Task& b) {
            return a.cost_hint < b.cost_hint;
          });
      const int share =
          std::max(1, free_ranks() / static_cast<int>(queue.size()));
      Outcome outcome{std::move(*next), {}, running.emplace(running.end()),
                      std::nullopt, nullptr};
      queue.erase(next);
      const int group = serial_attempt(outcome.task) ? 1 : share;
      for (std::size_t r = 0;
           static_cast<int>(outcome.rank_ids.size()) < group; ++r) {
        if (rank_busy[r]) continue;
        rank_busy[r] = true;
        outcome.rank_ids.push_back(static_cast<int>(r));
      }
      const auto slot = outcome.thread;
      try {
        *slot = std::thread([&, outcome = std::move(outcome)]() mutable {
          try {
            outcome.done = run_subset(outcome.task, outcome.rank_ids);
          } catch (...) {  // lint:allow(catch-all): classified by recover
            outcome.error = std::current_exception();
          }
          std::lock_guard lock(outcomes_mutex);
          outcomes.push_back(std::move(outcome));
          outcome_ready.notify_one();
        });
      } catch (...) {  // lint:allow(catch-all): rethrown to the loop below
        running.erase(slot);
        throw;
      }
    }
  };
  while (true) {
    try {
      dispatch();
    } catch (...) {  // lint:allow(catch-all): rethrown after the join
      keep_first_error();
    }
    if (running.empty()) break;
    std::vector<Outcome> ready;
    {
      std::unique_lock lock(outcomes_mutex);
      outcome_ready.wait(lock, [&] { return !outcomes.empty(); });
      ready.swap(outcomes);
    }
    for (Outcome& outcome : ready) {
      outcome.thread->join();
      running.erase(outcome.thread);
      for (int r : outcome.rank_ids)
        rank_busy[static_cast<std::size_t>(r)] = false;
      try {
        if (outcome.error)
          recover(outcome.task, outcome.error);
        else
          commit(std::move(*outcome.done));
      } catch (...) {  // lint:allow(catch-all): rethrown after the join
        keep_first_error();
      }
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  // Fold in subset-id order (the initial subset's id, then each re-split
  // row's zero/nonzero flag), so the result does not depend on which
  // subset finished first.
  auto subset_order = [qsub](const SubsetSpec& spec) {
    std::pair<std::uint64_t, std::vector<bool>> key;
    for (std::size_t k = 0; k < spec.pattern.size(); ++k) {
      if (k < qsub)
        key.first |= std::uint64_t{spec.pattern[k].second} << k;
      else
        key.second.push_back(spec.pattern[k].second);
    }
    return key;
  };
  std::sort(committed.begin(), committed.end(),
            [&](const Committed& a, const Committed& b) {
              return subset_order(a.report.spec) < subset_order(b.report.spec);
            });
  for (Committed& done : committed) {
    for (auto& column : done.columns)
      result.columns.push_back(std::move(column));
    result.total.merge(done.report.stats);
    result.subsets.push_back(std::move(done.report));
  }

  if (options.solver.audit) {
    // The executed subsets (including adaptive re-splits and resumed ones)
    // must tile the zero/nonzero pattern space: pairwise disjoint, exact
    // cover (Proposition 1's premise — every EFM lands in exactly one).
    std::vector<check::SubsetPattern> patterns;
    std::vector<std::string> labels;
    for (const auto& subset : result.subsets) {
      patterns.push_back(subset.spec.pattern);
      labels.push_back(subset.label);
    }
    check::check_subset_partition(patterns, labels);
    check::InvariantAuditor auditor;
    auditor.check_nullspace_product(problem.stoichiometry, result.columns,
                                    "solve_combined final");
    auditor.check_support_minimality(result.columns, "solve_combined final");
  }

  result.seconds = total_watch.seconds();
  return result;
}

}  // namespace elmo
