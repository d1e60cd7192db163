// Simulated distributed-memory message passing.
//
// The paper's Algorithms 2 and 3 ran under MPI on an InfiniBand Xeon
// cluster ("Calhoun") and on Blue Gene/P.  Neither is available offline, so
// elmo provides an in-process runtime with the same programming model: N
// ranks (threads) with private state, point-to-point messages, barrier /
// all-gather / all-reduce collectives, and — crucially for reproducing the
// paper's Network-II memory story — PER-RANK MEMORY ACCOUNTING with a
// configurable budget.  Work division, message volume and per-rank peak
// memory are identical to what the MPI implementation would measure; only
// physical speedup is bounded by the host's core count.
//
// Error handling: an exception escaping one rank aborts the world — blocked
// peers throw AbortedError (carrying the originating rank and root cause)
// instead of deadlocking — and the original exception is rethrown to the
// caller of run_ranks.  A rank that exits while peers are still blocked on
// it (recv from an exited source, a barrier it will never join) likewise
// wakes those peers promptly instead of hanging the world.
//
// Fault injection: RunOptions can carry a FaultPlan (fault.hpp) that
// crashes ranks at chosen operations, corrupts or drops payloads, and slows
// chosen ranks down — the substrate for the retry/checkpoint machinery in
// the Algorithm-3 driver.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "resource/watchdog.hpp"
#include "support/error.hpp"

namespace elmo::mpsim {

struct FaultPlan;

/// Thrown in ranks blocked on a collective/recv when another rank failed
/// or exited while they could never be released.
class AbortedError : public Error {
 public:
  AbortedError()
      : Error("mpsim: world aborted by a failing rank"), origin_rank(-1) {}
  AbortedError(int origin, const std::string& cause)
      : Error("mpsim: world aborted (origin rank " + std::to_string(origin) +
              "): " + cause),
        origin_rank(origin),
        root_cause(cause) {}

  /// Rank whose failure/exit triggered the abort (-1 if unknown).
  int origin_rank;
  /// what() of the originating failure.
  std::string root_cause;
};

using Payload = std::vector<std::uint8_t>;

namespace detail {
struct World;
}  // namespace detail

/// Per-rank traffic and memory counters.
struct RankCounters {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t collectives = 0;
  std::size_t memory_in_use = 0;
  std::size_t memory_peak = 0;
  // Blocked-wait accounting in microseconds, classified at the wait site:
  // data-wait = recv blocked until a matching message arrived, barrier-wait
  // = a collective blocked on peer attendance, straggler-wait = either kind
  // while the peer being waited on is a configured FaultPlan straggler.
  std::uint64_t wait_data_us = 0;
  std::uint64_t wait_barrier_us = 0;
  std::uint64_t wait_straggler_us = 0;
  /// Peak number of undelivered messages queued in this rank's inbox.
  std::uint64_t max_queue_depth = 0;
};

/// Handle each rank body receives; mirrors the MPI surface the paper's
/// implementation would use.
class Communicator {
 public:
  Communicator(detail::World& world, int rank);

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  /// Point-to-point: non-blocking buffered send, blocking tagged receive.
  /// recv throws AbortedError instead of blocking forever when the source
  /// rank has exited without a matching message in flight.
  void send(int destination, int tag, Payload payload);
  Payload recv(int source, int tag);

  void barrier();

  /// Gather every rank's payload; result[r] is rank r's contribution.
  std::vector<Payload> all_gather(Payload local);

  std::uint64_t all_reduce_sum(std::uint64_t local);
  std::uint64_t all_reduce_max(std::uint64_t local);

  /// Memory accounting against the configured per-rank budget.  `track`
  /// ADDS to the rank's usage; set_usage replaces it (convenient for
  /// "current matrix" snapshots).  Throws MemoryBudgetError when the budget
  /// is exceeded — the simulated equivalent of the paper's Algorithm-2 run
  /// on Network II dying at iteration 59.
  void set_memory_usage(std::size_t bytes);
  [[nodiscard]] std::size_t memory_budget() const;

  [[nodiscard]] const RankCounters& counters() const { return counters_; }

 private:
  void check_abort_locked(std::unique_lock<std::mutex>& lock);
  /// Fault hook run at the top of every primitive: applies the straggler
  /// delay and the crash trigger of the configured FaultPlan (if any).
  void enter_op(const char* where);
  /// Generation-counting barrier shared by the collectives; detects ranks
  /// that exited while peers were (or become) blocked in it.
  void sync_barrier();

  detail::World& world_;
  int rank_;
  RankCounters counters_;
};

struct RunOptions {
  /// 0 = unlimited.
  std::size_t memory_budget_per_rank = 0;
  /// Optional deterministic fault injection (see fault.hpp).  Shared so
  /// trigger state persists across retried worlds.
  std::shared_ptr<FaultPlan> fault_plan;
  /// Progress checker: when every non-exited rank is blocked in a wait no
  /// peer can ever satisfy, abort the world with a per-rank diagnostic
  /// instead of hanging.  Deterministic (fires on the first stalled run,
  /// no timeouts involved); costs one scan at the moment the last runnable
  /// rank blocks, nothing on the fast path.
  bool detect_deadlock = true;
  /// Wall-clock supervision of the whole world by the resource watchdog.
  /// Per-rank operation counters feed straggler/wedge detection beyond the
  /// deterministic deadlock checker above (which cannot see a rank wedged
  /// OUTSIDE a wait): a soft deadline emits a structured diagnosis naming
  /// the slowest rank; a hard deadline or a stall (no rank performed any
  /// operation for stall_seconds) aborts the world and run_ranks raises
  /// DeadlineExceededError so the combined driver can re-queue with a
  /// split.  All-zero (the default) disables supervision entirely.
  resource::Deadlines deadlines;
};

/// Result of a world run: per-rank counters (index = rank).
struct RunReport {
  std::vector<RankCounters> ranks;

  [[nodiscard]] std::uint64_t total_bytes_sent() const {
    std::uint64_t total = 0;
    for (const auto& r : ranks) total += r.bytes_sent;
    return total;
  }
  [[nodiscard]] std::size_t max_memory_peak() const {
    std::size_t peak = 0;
    for (const auto& r : ranks) peak = std::max(peak, r.memory_peak);
    return peak;
  }
};

/// Run `num_ranks` ranks of `body` and join them: rank 0 on the calling
/// thread, ranks 1.. on spawned threads (a one-rank world spawns none).
/// The first exception thrown by any rank is rethrown here after all
/// ranks have stopped (AbortedError from secondary ranks is swallowed).
RunReport run_ranks(int num_ranks,
                    const std::function<void(Communicator&)>& body,
                    const RunOptions& options = {});

}  // namespace elmo::mpsim
