// Deterministic fault injection for the simulated message-passing runtime.
//
// The paper's robustness story (Table IV: Algorithm 2 dies on Network II at
// iteration 59; Algorithm 3 survives by re-splitting the oversized subsets)
// hinges on how the system behaves when a rank fails.  A FaultPlan lets
// tests and experiments script such failures deterministically:
//
//   * crash a chosen rank at a chosen operation index (every communicator
//     primitive — send/recv/barrier/all_gather/all_reduce — counts as one
//     op on the calling rank),
//   * corrupt or drop point-to-point payloads (corruption is caught by the
//     CRC32 framing in serialize.hpp and surfaces as CorruptPayloadError),
//   * inject stragglers (a fixed per-rank delay before every operation).
//
// Op/payload counters are CUMULATIVE across worlds sharing one plan, so a
// plan threaded through the Algorithm-3 driver models "the cluster loses a
// node once, mid-run": the fault fires in whichever subset reaches the
// trigger, the retried attempt finds the trigger exhausted and succeeds.
// Triggers are keyed by WORLD rank.  Algorithm 3 gives each subset its own
// world, numbered from 0, so with one-rank groups every subset is rank 0;
// and its subsets run concurrently, so the counters still fix how many
// faults fire, but no longer which subset they fire in.
// Every fault decision is guarded by one mutex (operations are simulated
// message passing; the lock is not on any hot path) and corruption bytes
// are drawn from the seeded elmo PRNG, so runs are bit-reproducible.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mpsim/communicator.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

namespace elmo::mpsim {

/// Thrown inside a rank body when the fault plan crashes that rank.
class InjectedFaultError : public Error {
 public:
  InjectedFaultError(int fault_rank, std::uint64_t fault_op,
                     const std::string& where)
      : Error("mpsim: injected crash on rank " + std::to_string(fault_rank) +
              " at op " + std::to_string(fault_op) + " (" + where + ")"),
        rank(fault_rank),
        op(fault_op) {}

  int rank;
  std::uint64_t op;
};

struct FaultPlan {
  explicit FaultPlan(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
      : seed_(seed) {}

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Aggregate counts of everything the plan did, for assertions/reports.
  struct Totals {
    std::uint64_t crashes = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t drops = 0;
    std::uint64_t delays = 0;
  };

  // ---- configuration (call before running a world) ----

  /// Crash `rank` at the first op whose cumulative index reaches `at_op`;
  /// re-arms up to `times` total firings (a retried world crashes again at
  /// its first op until the trigger is exhausted).
  FaultPlan& crash_rank(int rank, std::uint64_t at_op, int times = 1) {
    std::lock_guard lock(mutex_);
    crashes_[rank].push_back({at_op, times});
    return *this;
  }

  /// Corrupt outgoing payload number `nth_payload` (cumulative per rank;
  /// point-to-point sends and all_gather contributions both count).
  FaultPlan& corrupt_payload(int rank, std::uint64_t nth_payload,
                             int times = 1) {
    std::lock_guard lock(mutex_);
    corruptions_[rank].push_back({nth_payload, times});
    return *this;
  }

  /// Silently lose the `nth` point-to-point message from `source` to
  /// `destination` (cumulative per ordered pair).
  FaultPlan& drop_message(int source, int destination, std::uint64_t nth,
                          int times = 1) {
    std::lock_guard lock(mutex_);
    drops_[{source, destination}].push_back({nth, times});
    return *this;
  }

  /// Delay every operation of `rank` by `delay_us` microseconds.
  FaultPlan& straggle(int rank, std::uint32_t delay_us) {
    std::lock_guard lock(mutex_);
    straggle_us_[rank] = delay_us;
    return *this;
  }

  // ---- runtime hooks (called by Communicator) ----

  /// Advance the cumulative op counter for `rank`; throws
  /// InjectedFaultError if a crash trigger fires at this op.
  void on_op(int rank, const char* where) {
    std::uint64_t op = 0;
    bool crash = false;
    {
      std::lock_guard lock(mutex_);
      op = ops_[rank]++;
      crash = fire_locked(crashes_, rank, op);
      if (crash) ++totals_.crashes;
    }
    if (crash) throw InjectedFaultError(rank, op, where);
  }

  /// Account one outgoing payload from `rank`; if a corruption trigger
  /// fires, damage `payload` in place (one deterministic byte flip).
  void on_payload(int rank, Payload& payload) {
    std::lock_guard lock(mutex_);
    const std::uint64_t index = payloads_[rank]++;
    if (!fire_locked(corruptions_, rank, index)) return;
    ++totals_.corruptions;
    Rng rng(seed_ ^ (0xC0FFEEULL + 0x9e37ULL * totals_.corruptions));
    if (payload.empty()) {
      payload.push_back(static_cast<std::uint8_t>(rng.next() | 1));
      return;
    }
    const std::size_t pos = rng.below(payload.size());
    const auto mask = static_cast<std::uint8_t>(rng.next() % 255 + 1);
    payload[pos] ^= mask;  // mask != 0, so the byte always changes
  }

  /// True iff the nth message from `source` to `destination` must be lost.
  bool on_send(int source, int destination) {
    std::lock_guard lock(mutex_);
    const std::pair<int, int> key{source, destination};
    const std::uint64_t nth = pair_sends_[key]++;
    if (!fire_locked(drops_, key, nth)) return false;
    ++totals_.drops;
    return true;
  }

  /// Configured delay for `rank` (0 = none); counts one delay when nonzero.
  std::uint32_t straggler_delay_us(int rank) {
    std::lock_guard lock(mutex_);
    auto it = straggle_us_.find(rank);
    if (it == straggle_us_.end() || it->second == 0) return 0;
    ++totals_.delays;
    return it->second;
  }

  /// Pure query (no delay tallied): is `rank` configured as a straggler?
  /// The wait classifier uses this to label blocked time as straggler-wait
  /// without perturbing the Totals the tests assert on.
  [[nodiscard]] bool is_straggler(int rank) const {
    std::lock_guard lock(mutex_);
    auto it = straggle_us_.find(rank);
    return it != straggle_us_.end() && it->second != 0;
  }

  /// Pure query: does any rank other than `rank` straggle?  Classifies
  /// barrier-side blocking: waiting on a collective that a known straggler
  /// has yet to join is straggler-wait, not ordinary barrier skew.
  [[nodiscard]] bool has_straggler_excluding(int rank) const {
    std::lock_guard lock(mutex_);
    for (const auto& [r, us] : straggle_us_) {
      if (r != rank && us != 0) return true;
    }
    return false;
  }

  // ---- observability ----

  [[nodiscard]] Totals totals() const {
    std::lock_guard lock(mutex_);
    return totals_;
  }

  /// Cumulative operations `rank` has executed under this plan.
  [[nodiscard]] std::uint64_t ops_seen(int rank) const {
    std::lock_guard lock(mutex_);
    auto it = ops_.find(rank);
    return it == ops_.end() ? 0 : it->second;
  }

 private:
  struct Trigger {
    std::uint64_t at;  // fire at the first event index >= at
    int remaining;     // re-armed firings left
  };

  template <typename Key>
  static bool fire_locked(std::map<Key, std::vector<Trigger>>& triggers,
                          const Key& key, std::uint64_t index) {
    auto it = triggers.find(key);
    if (it == triggers.end()) return false;
    for (auto& trigger : it->second) {
      if (trigger.remaining > 0 && index >= trigger.at) {
        --trigger.remaining;
        return true;
      }
    }
    return false;
  }

  mutable std::mutex mutex_;
  std::uint64_t seed_;
  std::map<int, std::vector<Trigger>> crashes_;
  std::map<int, std::vector<Trigger>> corruptions_;
  std::map<std::pair<int, int>, std::vector<Trigger>> drops_;
  std::map<int, std::uint32_t> straggle_us_;
  std::map<int, std::uint64_t> ops_;
  std::map<int, std::uint64_t> payloads_;
  std::map<std::pair<int, int>, std::uint64_t> pair_sends_;
  Totals totals_;
};

}  // namespace elmo::mpsim
