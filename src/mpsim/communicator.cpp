#include "mpsim/communicator.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <new>  // std::bad_alloc  lint:allow(naked-new)
#include <thread>

#include "check/lockorder.hpp"
#include "mpsim/fault.hpp"
#include "obs/obs.hpp"
#include "resource/watchdog.hpp"
#include "support/assert.hpp"

namespace elmo::mpsim {

namespace {

/// Cached instrument handles for the runtime's traffic metrics.
struct MpsimMetrics {
  obs::Counter messages = obs::Registry::global().counter(
      "mpsim.messages_sent");
  obs::Counter bytes = obs::Registry::global().counter("mpsim.bytes_sent");
  obs::Counter collectives = obs::Registry::global().counter(
      "mpsim.collectives");
  obs::Counter rank_failures = obs::Registry::global().counter(
      "mpsim.rank_failures");
  obs::Counter suppressed_errors = obs::Registry::global().counter(
      "mpsim.secondary_errors_suppressed");
  obs::Counter deadlocks = obs::Registry::global().counter(
      "mpsim.deadlocks_detected");
  obs::Counter stragglers = obs::Registry::global().counter(
      "mpsim.stragglers_detected");
  obs::Counter deadline_aborts = obs::Registry::global().counter(
      "mpsim.deadline_aborts");
  obs::Histogram payload_bytes = obs::Registry::global().histogram(
      "mpsim.payload_bytes");
  obs::Histogram queue_depth = obs::Registry::global().histogram(
      "mpsim.queue_depth");
  obs::Histogram wait_data = obs::Registry::global().histogram(
      "mpsim.wait_data_us");
  obs::Histogram wait_barrier = obs::Registry::global().histogram(
      "mpsim.wait_barrier_us");
  obs::Histogram wait_straggler = obs::Registry::global().histogram(
      "mpsim.wait_straggler_us");

  static const MpsimMetrics& get() {
    static const MpsimMetrics metrics;
    return metrics;
  }
};

/// Account one classified blocked wait: rank counters, the per-class
/// histogram, and (when tracing) a span on the waiting rank's track so
/// wait time shows up between the send/recv slices in Perfetto.
void record_wait(RankCounters& counters, bool data_wait, bool straggler,
                 double trace_start_us, double waited_us) {
  const auto us = static_cast<std::uint64_t>(waited_us);
  const MpsimMetrics& metrics = MpsimMetrics::get();
  const char* kind = nullptr;
  if (straggler) {
    counters.wait_straggler_us += us;
    metrics.wait_straggler.observe(us);
    kind = "straggler-wait";
  } else if (data_wait) {
    counters.wait_data_us += us;
    metrics.wait_data.observe(us);
    kind = "data-wait";
  } else {
    counters.wait_barrier_us += us;
    metrics.wait_barrier.observe(us);
    kind = "barrier-wait";
  }
  if (obs::TraceRecorder* recorder = obs::trace())
    recorder->record_complete(kind, "wait", trace_start_us, waited_us);
}

}  // namespace

namespace detail {

/// Each World (one per run_ranks call) gets a process-unique epoch so flow
/// ids never repeat across the subsets of a divide-and-conquer run.
inline std::uint64_t next_world_epoch() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Shared state of one simulated machine.  All blocking waits watch the
/// `aborted` flag so a failing rank can never deadlock its peers; rank
/// exits are tracked so a wait that can provably never be satisfied (recv
/// from an exited source, a barrier an exited rank will never join) wakes
/// promptly instead of hanging until process teardown.
struct World {
  explicit World(int n, const RunOptions& opts) : size(n), options(opts) {
    mailboxes.resize(static_cast<std::size_t>(n));
    gather_slots.assign(static_cast<std::size_t>(n), {});
    reduce_slots.assign(static_cast<std::size_t>(n), 0);
    exited.assign(static_cast<std::size_t>(n), false);
    waits.assign(static_cast<std::size_t>(n), {});
    progress = std::vector<std::atomic<std::uint64_t>>(
        static_cast<std::size_t>(n));
  }

  const int size;
  const RunOptions options;

  std::mutex mutex;
  std::condition_variable cv;
  bool aborted = false;
  int abort_origin = -1;
  std::string abort_reason;

  // Rank lifecycle: bodies that returned (normally or by throwing).
  std::vector<bool> exited;
  int num_exited = 0;
  int first_exited = -1;

  // Point-to-point: per-destination map keyed by (source, tag).  Each
  // queued message carries the flow id stamped at send time so the recv
  // side can close the matching Perfetto flow arrow.
  struct Message {
    Payload payload;
    std::uint64_t flow = 0;
  };
  struct Mailbox {
    std::map<std::pair<int, int>, std::deque<Message>> queues;
    std::size_t depth = 0;       // undelivered messages across all queues
    std::size_t peak_depth = 0;  // high-water mark of depth
  };
  std::vector<Mailbox> mailboxes;

  // Monotone message sequence; combined with `flow_epoch` it forms the
  // per-message flow id (guarded by `mutex`, like the mailboxes it stamps).
  std::uint64_t next_flow = 1;

  // Process-unique world number mixed into every flow id.  Without it a
  // divide-and-conquer run — one World per subset — would reuse ids across
  // subsets and Perfetto would thread arrows between unrelated exchanges.
  const std::uint64_t flow_epoch = next_world_epoch();

  // Barrier (generation-counting).
  int barrier_waiting = 0;
  std::uint64_t barrier_generation = 0;

  // Collectives: slot per rank plus a two-phase barrier around them.
  std::vector<Payload> gather_slots;
  std::vector<std::uint64_t> reduce_slots;

  // Progress checker: what each rank is blocked on right now.  A rank
  // registers its wait (predicate already false, mutex held) before
  // blocking; the moment no runnable rank remains the stall is provable
  // and the world aborts with a per-rank diagnostic.
  struct WaitInfo {
    enum class Kind { kNone, kRecv, kBarrier };
    Kind kind = Kind::kNone;
    int source = -1;
    int tag = 0;
    // Barrier waits record the generation they entered; a registration
    // whose generation has since advanced is already released (the thread
    // just hasn't re-acquired the mutex yet) and must not count as stalled.
    std::uint64_t generation = 0;

    [[nodiscard]] std::string describe() const {
      switch (kind) {
        case Kind::kRecv:
          return "recv(source=" + std::to_string(source) +
                 ", tag=" + std::to_string(tag) + ")";
        case Kind::kBarrier:
          return "barrier";
        case Kind::kNone:
          break;
      }
      return "running";
    }
  };
  std::vector<WaitInfo> waits;
  int num_waiting = 0;

  // Per-rank operation counters sampled lock-free by the resource watchdog
  // (straggler/wedge detection); bumped on every primitive in enter_op.
  std::vector<std::atomic<std::uint64_t>> progress;
  // Set by the watchdog's hard-deadline callback so run_ranks can surface
  // DeadlineExceededError instead of the secondary AbortedErrors.
  bool deadline_hit = false;
  std::string deadline_reason;

  void abort_locked(int origin, const std::string& reason) {
    if (!aborted) {
      aborted = true;
      abort_origin = origin;
      abort_reason = reason;
    }
    cv.notify_all();
  }

  void mark_exited_locked(int rank) {
    exited[static_cast<std::size_t>(rank)] = true;
    if (first_exited < 0) first_exited = rank;
    ++num_exited;
    // A rank that exits while peers sit inside a barrier guarantees
    // deadlock: the barrier can never again reach full attendance.
    if (barrier_waiting > 0 && !aborted) {
      abort_locked(rank,
                   "rank " + std::to_string(rank) +
                       " exited while peers were blocked in a collective");
    }
    detect_stall_locked();
    cv.notify_all();
  }

  /// Fires when no runnable rank remains: every non-exited rank is blocked
  /// and none of their waits can resolve without a runnable peer.  A wait
  /// whose predicate has already turned true (message in flight, barrier
  /// generation advanced, source exited) is excluded — that rank holds a
  /// wake-up it simply hasn't consumed yet, so the world can still make
  /// progress.  This keeps the check sound: it fires iff every registered
  /// predicate is false while no runnable rank exists to flip one.
  void detect_stall_locked() {
    if (!options.detect_deadlock || aborted) return;
    if (num_waiting == 0 || num_waiting + num_exited < size) return;
    for (int r = 0; r < size; ++r) {
      const auto& wait = waits[static_cast<std::size_t>(r)];
      switch (wait.kind) {
        case WaitInfo::Kind::kNone:
          // Counted neither waiting nor exited: rank is runnable.
          if (!exited[static_cast<std::size_t>(r)]) return;
          break;
        case WaitInfo::Kind::kRecv: {
          if (exited[static_cast<std::size_t>(wait.source)]) {
            return;  // self-resolving: that rank wakes and aborts on its own
          }
          const auto& queues = mailboxes[static_cast<std::size_t>(r)].queues;
          auto it = queues.find({wait.source, wait.tag});
          if (it != queues.end() && !it->second.empty()) {
            return;  // matching message already delivered; rank will wake
          }
          break;
        }
        case WaitInfo::Kind::kBarrier:
          if (barrier_generation != wait.generation) {
            return;  // barrier already released; rank will wake
          }
          break;
      }
    }
    std::string diagnosis = "deadlock detected, no runnable rank remains:";
    for (int r = 0; r < size; ++r) {
      diagnosis += " rank " + std::to_string(r) + " ";
      diagnosis += exited[static_cast<std::size_t>(r)]
                       ? "exited"
                       : waits[static_cast<std::size_t>(r)].describe();
      if (r + 1 < size) diagnosis += ';';
    }
    MpsimMetrics::get().deadlocks.add(1);
    obs::trace_instant("deadlock", "mpsim", diagnosis);
    abort_locked(-1, diagnosis);
  }
};

/// RAII wait registration for the progress checker.  Construct with the
/// world mutex held and the wait predicate known false; destruct (mutex
/// again held after cv.wait) to mark the rank runnable.
class ScopedWait {
 public:
  ScopedWait(World& world, int rank, World::WaitInfo info)
      : world_(world), rank_(rank) {
    world_.waits[static_cast<std::size_t>(rank_)] = info;
    ++world_.num_waiting;
    world_.detect_stall_locked();
  }
  ~ScopedWait() {
    world_.waits[static_cast<std::size_t>(rank_)] = {};
    --world_.num_waiting;
  }

  ScopedWait(const ScopedWait&) = delete;
  ScopedWait& operator=(const ScopedWait&) = delete;

 private:
  World& world_;
  int rank_;
};

}  // namespace detail

Communicator::Communicator(detail::World& world, int rank)
    : world_(world), rank_(rank) {}

int Communicator::size() const { return world_.size; }

void Communicator::check_abort_locked(std::unique_lock<std::mutex>&) {
  if (world_.aborted)
    throw AbortedError(world_.abort_origin, world_.abort_reason);
}

void Communicator::enter_op(const char* where) {
  world_.progress[static_cast<std::size_t>(rank_)].fetch_add(
      1, std::memory_order_relaxed);
  FaultPlan* plan = world_.options.fault_plan.get();
  if (plan == nullptr) return;
  if (const std::uint32_t us = plan->straggler_delay_us(rank_)) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  plan->on_op(rank_, where);  // throws InjectedFaultError on a crash trigger
}

void Communicator::send(int destination, int tag, Payload payload) {
  ELMO_REQUIRE(destination >= 0 && destination < world_.size,
               "send: bad destination rank");
  obs::TraceSpan span("send", "mpsim");
  const MpsimMetrics& metrics = MpsimMetrics::get();
  metrics.messages.add(1);
  metrics.bytes.add(payload.size());
  metrics.payload_bytes.observe(payload.size());
  enter_op("send");
  FaultPlan* plan = world_.options.fault_plan.get();
  if (plan != nullptr) plan->on_payload(rank_, payload);
  ELMO_LOCK_ORDER("mpsim.world");
  std::unique_lock lock(world_.mutex);
  check_abort_locked(lock);
  counters_.messages_sent += 1;
  counters_.bytes_sent += payload.size();
  // A dropped message is "sent" from the sender's perspective (counters
  // above reflect the traffic) but never reaches the destination mailbox —
  // and opens no flow, so flow pairing stays exact under fault injection.
  if (plan != nullptr && plan->on_send(rank_, destination)) {
    if (obs::trace() != nullptr) {
      obs::trace_instant("drop", "mpsim",
                         "src=" + std::to_string(rank_) +
                             " dst=" + std::to_string(destination) +
                             " tag=" + std::to_string(tag));
    }
    return;
  }
  // Epoch in the top (non-gather) bits, per-world sequence below: unique
  // across every World of the process, disjoint from the gather id space
  // (bit 63 clear).
  const std::uint64_t flow = ((world_.flow_epoch & 0x7fff) << 48) |
                             (world_.next_flow++ & 0xffffffffffff);
  const std::size_t bytes = payload.size();
  auto& box = world_.mailboxes[static_cast<std::size_t>(destination)];
  box.queues[{rank_, tag}].push_back({std::move(payload), flow});
  ++box.depth;
  box.peak_depth = std::max(box.peak_depth, box.depth);
  metrics.queue_depth.observe(box.depth);
  if (obs::TraceRecorder* recorder = obs::trace()) {
    recorder->record_flow("msg", "mpsim", 's', flow,
                          "src=" + std::to_string(rank_) +
                              " dst=" + std::to_string(destination) +
                              " seq=" + std::to_string(flow) +
                              " bytes=" + std::to_string(bytes) +
                              " tag=" + std::to_string(tag));
  }
  world_.cv.notify_all();
}

Payload Communicator::recv(int source, int tag) {
  ELMO_REQUIRE(source >= 0 && source < world_.size, "recv: bad source rank");
  obs::TraceSpan span("recv", "mpsim");
  enter_op("recv");
  ELMO_LOCK_ORDER("mpsim.world");
  std::unique_lock lock(world_.mutex);
  auto& queues = world_.mailboxes[static_cast<std::size_t>(rank_)].queues;
  const auto key = std::make_pair(source, tag);
  auto has_message = [&] {
    auto it = queues.find(key);
    return it != queues.end() && !it->second.empty();
  };
  auto ready = [&] {
    return world_.aborted || has_message() ||
           world_.exited[static_cast<std::size_t>(source)];
  };
  if (!ready()) {
    // Predicate is false under the mutex: this rank is now provably
    // blocked — register the wait for the progress checker and meter the
    // blocked duration for the wait-class breakdown.
    obs::TraceRecorder* recorder = obs::trace();
    const double trace_start =
        recorder != nullptr ? recorder->now_us() : 0.0;
    const auto wait_begin = std::chrono::steady_clock::now();
    {
      detail::ScopedWait wait(
          world_, rank_,
          {detail::World::WaitInfo::Kind::kRecv, source, tag});
      world_.cv.wait(lock, ready);
    }
    const double waited_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - wait_begin)
            .count();
    FaultPlan* plan = world_.options.fault_plan.get();
    const bool straggler = plan != nullptr && plan->is_straggler(source);
    record_wait(counters_, /*data_wait=*/true, straggler, trace_start,
                waited_us);
  }
  check_abort_locked(lock);
  // Deliver in-flight messages even from an exited source; only an empty
  // queue with no possible future sender is a hang, not a wait.
  if (!has_message()) {
    throw AbortedError(source, "recv(source=" + std::to_string(source) +
                                   ", tag=" + std::to_string(tag) +
                                   "): source rank exited with no matching "
                                   "message in flight");
  }
  auto& box = world_.mailboxes[static_cast<std::size_t>(rank_)];
  auto& queue = box.queues[key];
  Payload payload = std::move(queue.front().payload);
  const std::uint64_t flow = queue.front().flow;
  queue.pop_front();
  --box.depth;
  counters_.messages_received += 1;
  if (obs::TraceRecorder* recorder = obs::trace())
    recorder->record_flow("msg", "mpsim", 'f', flow);
  return payload;
}

void Communicator::sync_barrier() {
  ELMO_LOCK_ORDER("mpsim.world");
  std::unique_lock lock(world_.mutex);
  check_abort_locked(lock);
  // An already-exited rank can never join this barrier, so entering it is
  // a guaranteed deadlock for the whole world: fail fast instead.
  if (world_.num_exited > 0) {
    world_.abort_locked(
        world_.first_exited,
        "rank " + std::to_string(world_.first_exited) +
            " exited before peers entered a collective");
    throw AbortedError(world_.abort_origin, world_.abort_reason);
  }
  const std::uint64_t generation = world_.barrier_generation;
  if (++world_.barrier_waiting == world_.size) {
    world_.barrier_waiting = 0;
    ++world_.barrier_generation;
    world_.cv.notify_all();
    return;
  }
  obs::TraceRecorder* recorder = obs::trace();
  const double trace_start = recorder != nullptr ? recorder->now_us() : 0.0;
  const auto wait_begin = std::chrono::steady_clock::now();
  {
    detail::ScopedWait wait(
        world_, rank_,
        {detail::World::WaitInfo::Kind::kBarrier, -1, 0, generation});
    world_.cv.wait(lock, [&] {
      return world_.aborted || world_.barrier_generation != generation;
    });
  }
  const double waited_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - wait_begin)
                               .count();
  FaultPlan* plan = world_.options.fault_plan.get();
  const bool straggler =
      plan != nullptr && plan->has_straggler_excluding(rank_);
  record_wait(counters_, /*data_wait=*/false, straggler, trace_start,
              waited_us);
  if (world_.aborted && world_.barrier_generation == generation) {
    // Wake released us, not barrier completion: withdraw before throwing.
    --world_.barrier_waiting;
  }
  check_abort_locked(lock);
}

void Communicator::barrier() {
  obs::TraceSpan span("barrier", "mpsim");
  MpsimMetrics::get().collectives.add(1);
  enter_op("barrier");
  ++counters_.collectives;
  sync_barrier();
}

std::vector<Payload> Communicator::all_gather(Payload local) {
  obs::TraceSpan span("all_gather", "mpsim");
  const MpsimMetrics& metrics = MpsimMetrics::get();
  metrics.collectives.add(1);
  metrics.messages.add(static_cast<std::uint64_t>(world_.size - 1));
  metrics.bytes.add(local.size() *
                    static_cast<std::uint64_t>(world_.size - 1));
  metrics.payload_bytes.observe(local.size());
  enter_op("all_gather");
  FaultPlan* plan = world_.options.fault_plan.get();
  if (plan != nullptr) plan->on_payload(rank_, local);
  // Gather flows: one flow per (world, round, contributor), id = high bit |
  // world epoch << 32 | generation << 16 | rank.  The contributor opens it
  // when publishing its slot; every consumer closes it when copying the
  // slot out, so Perfetto draws the O(N^2) exchange fan the paper's
  // Algorithm 2 pays each iteration.  The generation is stable across the
  // publish phase (it only advances inside the sync_barrier that follows).
  constexpr std::uint64_t kGatherFlowBit = std::uint64_t{1} << 63;
  const std::uint64_t gather_base =
      kGatherFlowBit | ((world_.flow_epoch & 0x7fffffff) << 32);
  std::uint64_t round = 0;
  {
    std::unique_lock lock(world_.mutex);
    check_abort_locked(lock);
    ++counters_.collectives;
    counters_.messages_sent += static_cast<std::uint64_t>(world_.size - 1);
    counters_.bytes_sent +=
        local.size() * static_cast<std::uint64_t>(world_.size - 1);
    round = world_.barrier_generation;
    if (obs::TraceRecorder* recorder = obs::trace()) {
      recorder->record_flow(
          "gather", "mpsim", 's',
          gather_base | ((round & 0xffff) << 16) |
              (static_cast<std::uint64_t>(rank_) & 0xffff),
          "src=" + std::to_string(rank_) + " round=" + std::to_string(round) +
              " bytes=" + std::to_string(local.size()));
    }
    world_.gather_slots[static_cast<std::size_t>(rank_)] = std::move(local);
  }
  sync_barrier();  // everyone has published
  std::vector<Payload> result;
  {
    std::unique_lock lock(world_.mutex);
    check_abort_locked(lock);
    result = world_.gather_slots;  // copy: each rank owns its view
    if (obs::TraceRecorder* recorder = obs::trace()) {
      for (int peer = 0; peer < world_.size; ++peer) {
        if (peer == rank_) continue;
        recorder->record_flow(
            "gather", "mpsim", 'f',
            gather_base | ((round & 0xffff) << 16) |
                (static_cast<std::uint64_t>(peer) & 0xffff));
      }
    }
  }
  sync_barrier();  // safe to overwrite slots in the next collective
  return result;
}

std::uint64_t Communicator::all_reduce_sum(std::uint64_t local) {
  obs::TraceSpan span("all_reduce_sum", "mpsim");
  MpsimMetrics::get().collectives.add(1);
  enter_op("all_reduce_sum");
  {
    std::unique_lock lock(world_.mutex);
    check_abort_locked(lock);
    ++counters_.collectives;
    world_.reduce_slots[static_cast<std::size_t>(rank_)] = local;
  }
  sync_barrier();
  std::uint64_t total = 0;
  {
    std::unique_lock lock(world_.mutex);
    check_abort_locked(lock);
    for (auto v : world_.reduce_slots) total += v;
  }
  sync_barrier();
  return total;
}

std::uint64_t Communicator::all_reduce_max(std::uint64_t local) {
  obs::TraceSpan span("all_reduce_max", "mpsim");
  MpsimMetrics::get().collectives.add(1);
  enter_op("all_reduce_max");
  {
    std::unique_lock lock(world_.mutex);
    check_abort_locked(lock);
    ++counters_.collectives;
    world_.reduce_slots[static_cast<std::size_t>(rank_)] = local;
  }
  sync_barrier();
  std::uint64_t best = 0;
  {
    std::unique_lock lock(world_.mutex);
    check_abort_locked(lock);
    for (auto v : world_.reduce_slots) best = std::max(best, v);
  }
  sync_barrier();
  return best;
}

void Communicator::set_memory_usage(std::size_t bytes) {
  counters_.memory_in_use = bytes;
  counters_.memory_peak = std::max(counters_.memory_peak, bytes);
  const std::size_t budget = world_.options.memory_budget_per_rank;
  if (budget != 0 && bytes > budget) {
    throw MemoryBudgetError(
        "rank " + std::to_string(rank_) + " exceeded its memory budget (" +
            std::to_string(bytes) + " > " + std::to_string(budget) + " bytes)",
        bytes, budget);
  }
}

std::size_t Communicator::memory_budget() const {
  return world_.options.memory_budget_per_rank;
}

RunReport run_ranks(int num_ranks,
                    const std::function<void(Communicator&)>& body,
                    const RunOptions& options) {
  ELMO_REQUIRE(num_ranks > 0, "run_ranks: need at least one rank");
  detail::World world(num_ranks, options);
  std::vector<Communicator> comms;
  comms.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) comms.emplace_back(world, r);

  // Wall-clock supervision: the watchdog samples each rank's operation
  // counter; a soft deadline logs the straggler, a hard deadline or a
  // full stall aborts the world (surfaced below as DeadlineExceededError).
  resource::Watchdog::Token watchdog_token;
  if (options.deadlines.any()) {
    std::vector<resource::Watchdog::ProgressCounter> counters;
    counters.reserve(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) {
      counters.push_back({"rank " + std::to_string(r),
                          &world.progress[static_cast<std::size_t>(r)]});
    }
    watchdog_token = resource::Watchdog::global().arm(
        "mpsim world", options.deadlines,
        [](const std::string& diagnosis) {
          MpsimMetrics::get().stragglers.add(1);
          obs::trace_instant("straggler", "mpsim", diagnosis);
        },
        [&world](const std::string& diagnosis) {
          MpsimMetrics::get().deadline_aborts.add(1);
          std::unique_lock lock(world.mutex);
          world.deadline_hit = true;
          world.deadline_reason = diagnosis;
          world.abort_locked(-1, diagnosis);
        },
        std::move(counters));
  }

  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(num_ranks));
  auto run_rank = [&](int r) {
    try {
      body(comms[static_cast<std::size_t>(r)]);
      std::unique_lock lock(world.mutex);
      world.mark_exited_locked(r);
    } catch (const std::bad_alloc&) {
      // Classify allocation failure so the abort reason (and the
      // AbortedError cause peers see) names a degradable resource
      // exhaustion rather than an anonymous bad_alloc escape.  Each
      // rank writes only its own slot.  analyze:shared-ok
      errors[static_cast<std::size_t>(r)] =
          std::make_exception_ptr(ResourceError(
              "rank " + std::to_string(r) +
                  ": allocation failed (std::bad_alloc)",
              0, 0));
      MpsimMetrics::get().rank_failures.add(1);
      obs::trace_instant("rank-failure", "mpsim",
                         "rank " + std::to_string(r) + ": std::bad_alloc");
      std::unique_lock lock(world.mutex);
      world.abort_locked(r, "rank " + std::to_string(r) +
                                ": allocation failed (std::bad_alloc)");
      world.mark_exited_locked(r);
    } catch (const std::exception& e) {
      // analyze:shared-ok — per-rank disjoint slot.
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      MpsimMetrics::get().rank_failures.add(1);
      obs::trace_instant("rank-failure", "mpsim",
                         "rank " + std::to_string(r) + ": " + e.what());
      std::unique_lock lock(world.mutex);
      world.abort_locked(r, e.what());
      world.mark_exited_locked(r);
    } catch (...) {
      // Non-std exception: captured (never swallowed) and recorded on
      // the obs layer before the world is torn down.  analyze:shared-ok
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      MpsimMetrics::get().rank_failures.add(1);
      obs::trace_instant("rank-failure", "mpsim",
                         "rank " + std::to_string(r) +
                             ": non-standard exception");
      std::unique_lock lock(world.mutex);
      world.abort_locked(r, "unknown exception");
      world.mark_exited_locked(r);
    }
  };
  // Rank 0 runs on the calling thread, under the caller's trace track, so
  // a one-rank world spawns no thread and a world of n ranks holds n.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks - 1));
  for (int r = 1; r < num_ranks; ++r) {
    threads.emplace_back([&run_rank, r] {
      obs::set_current_thread_name("rank " + std::to_string(r));
      run_rank(r);
    });
  }
  run_rank(0);
  for (auto& thread : threads) thread.join();

  // Stop supervision before unwinding: disarm blocks until any in-flight
  // watchdog callback (which references `world`) has returned.
  watchdog_token.disarm();

  // Rethrow the first real failure (skip secondary AbortedErrors; each one
  // suppressed here is tallied so cascade failures stay visible).
  std::exception_ptr first;
  bool first_is_aborted = false;
  std::uint64_t suppressed = 0;
  for (const auto& error : errors) {
    if (!error) continue;
    try {
      std::rethrow_exception(error);
    } catch (const AbortedError&) {
      if (!first) {
        first = error;
        first_is_aborted = true;
      } else {
        ++suppressed;
      }
    } catch (...) {  // lint:allow(catch-all): rethrown to the caller below
      first = error;
      first_is_aborted = false;
      break;
    }
  }
  if (suppressed > 0) {
    MpsimMetrics::get().suppressed_errors.add(suppressed);
    obs::trace_instant("suppressed-aborts", "mpsim",
                       std::to_string(suppressed) +
                           " secondary AbortedError(s) suppressed");
  }
  // A watchdog abort produces only secondary AbortedErrors in the ranks;
  // surface it as the typed deadline failure the retry ladder classifies
  // as re-queue-with-split.
  if (world.deadline_hit && (!first || first_is_aborted)) {
    throw DeadlineExceededError(world.deadline_reason,
                                options.deadlines.hard_seconds > 0
                                    ? options.deadlines.hard_seconds
                                    : options.deadlines.stall_seconds);
  }
  if (first) std::rethrow_exception(first);

  RunReport report;
  report.ranks.reserve(comms.size());
  for (const auto& comm : comms) report.ranks.push_back(comm.counters());
  // Inbox high-water marks live on the world (the sender updates them while
  // holding the mutex); fold them into the per-rank counters here, after
  // every rank has joined.
  for (int r = 0; r < num_ranks; ++r) {
    report.ranks[static_cast<std::size_t>(r)].max_queue_depth =
        world.mailboxes[static_cast<std::size_t>(r)].peak_depth;
  }
  return report;
}

}  // namespace elmo::mpsim
