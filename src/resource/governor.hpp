// Process-wide memory governance.
//
// The paper's intermediate-candidate explosion kills real runs by OOM long
// before they fail algorithmically: Algorithm 2 replicates the full matrix
// on every rank, and one bad iteration can double the footprint.  The
// MemoryGovernor gives the process a budget (`--mem-limit`) and a ledger of
// who is holding what, so the solver can *decide* — proceed, spill cold
// candidate blocks to disk, or refuse an iteration and let the
// divide-and-conquer driver re-split — instead of dying on std::bad_alloc.
//
// Accounting is subsystem-scoped (matrix storage, candidate slabs,
// checkpoint/spill buffers) and lease-based: a MemoryLease is an RAII slot
// that a solver instance updates with its current usage and that releases
// itself on destruction, so concurrent subsets and simulated ranks can all
// charge the same process-wide ledger without double-free bugs.
//
// Layering: resource depends only on support/ and the obs facade, so the
// same-layer modules that need it (nullspace, mpsim, core) can include it
// without creating a module cycle.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace elmo::resource {

/// Who is holding the memory.  Used for the per-subsystem breakdown in
/// report.json and for targeted pressure responses (candidate slabs can
/// spill; matrix storage cannot).
enum class Subsystem : int {
  kMatrix = 0,      // the live column matrix (per solve/rank replica)
  kCandidates = 1,  // transient candidate slabs inside one iteration
  kCheckpoint = 2,  // checkpoint encode/decode and spill I/O buffers
  kCount = 3,
};

const char* subsystem_name(Subsystem s);

class MemoryGovernor {
 public:
  /// The process-wide instance every subsystem charges.
  static MemoryGovernor& global();

  MemoryGovernor() = default;
  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  /// Set the process budget in bytes.  0 disables governance: leases still
  /// account (the ledger is free), but nothing is enforced.
  void set_limit(std::size_t bytes);
  [[nodiscard]] std::size_t limit() const {
    return limit_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const { return limit() != 0; }

  /// Current charged bytes, total and per subsystem.
  [[nodiscard]] std::size_t usage() const;
  [[nodiscard]] std::size_t usage(Subsystem s) const {
    return usage_[static_cast<int>(s)].load(std::memory_order_relaxed);
  }
  /// High-water mark of the charged total.
  [[nodiscard]] std::size_t peak_usage() const {
    return peak_.load(std::memory_order_relaxed);
  }

  /// Throw ResourceError if the resident charge alone already exceeds the
  /// limit (the caller cannot help by spilling; only re-splitting or the
  /// ungoverned final rung can proceed).  `context` names the caller.
  void enforce_resident(const std::string& context) const;

  /// Cumulative out-of-core traffic, credited by SpillFile on every block.
  void note_spill(std::uint64_t bytes);
  [[nodiscard]] std::uint64_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t spill_blocks() const {
    return spill_blocks_.load(std::memory_order_relaxed);
  }

  /// Forget everything (tests; also run start, so a CLI process reusing the
  /// global governor starts from a clean ledger).
  void reset();

 private:
  friend class MemoryLease;
  void adjust(Subsystem s, std::ptrdiff_t delta);
  void publish_gauges() const;

  std::atomic<std::size_t> limit_{0};
  std::atomic<std::size_t> usage_[static_cast<int>(Subsystem::kCount)] = {};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::uint64_t> spill_bytes_{0};
  std::atomic<std::uint64_t> spill_blocks_{0};
};

/// RAII usage slot: set() charges the delta between the new and previous
/// value against the governor; the destructor releases whatever is still
/// charged.  One lease per solver instance / rank replica, so concurrent
/// holders sum correctly in the process ledger.
class MemoryLease {
 public:
  explicit MemoryLease(Subsystem subsystem,
                       MemoryGovernor& governor = MemoryGovernor::global())
      : governor_(&governor), subsystem_(subsystem) {}
  MemoryLease(const MemoryLease&) = delete;
  MemoryLease& operator=(const MemoryLease&) = delete;
  MemoryLease(MemoryLease&& other) noexcept
      : governor_(other.governor_),
        subsystem_(other.subsystem_),
        charged_(other.charged_) {
    other.governor_ = nullptr;
    other.charged_ = 0;
  }
  ~MemoryLease() { release(); }

  void set(std::size_t bytes) {
    if (governor_ == nullptr || bytes == charged_) return;
    governor_->adjust(subsystem_,
                      static_cast<std::ptrdiff_t>(bytes) -
                          static_cast<std::ptrdiff_t>(charged_));
    charged_ = bytes;
  }
  void release() {
    if (governor_ != nullptr && charged_ != 0) {
      governor_->adjust(subsystem_, -static_cast<std::ptrdiff_t>(charged_));
      charged_ = 0;
    }
  }
  [[nodiscard]] std::size_t charged() const { return charged_; }

 private:
  MemoryGovernor* governor_;
  Subsystem subsystem_;
  std::size_t charged_ = 0;
};

}  // namespace elmo::resource
