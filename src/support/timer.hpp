// Wall-clock timing utilities.
//
// Stopwatch    - simple start/elapsed timer.
// Phase        - interned ids for the algorithm's recurring phases (the
//                rows of Tables II and III) so hot-path accounting is an
//                array add, not a map lookup.
// PhaseTimer   - accumulates per-phase durations; interned phases live in a
//                fixed array, ad-hoc names fall back to a map, and the
//                string API is preserved for merge/report code.
// ScopedPhase  - RAII adapter adding a scope's duration to one phase; also
//                emits a trace span when a TraceRecorder is installed, so
//                every existing phase site doubles as an instrumentation
//                point.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "obs/obs.hpp"

namespace elmo {

/// Monotonic wall-clock stopwatch measuring seconds as double.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restart the stopwatch from zero.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// The recurring phases of Algorithms 1-4.  Interned so the per-block
/// accounting in the iteration kernel indexes an array instead of hashing
/// a std::string (bench_micro_obs measures the difference).
enum class Phase : std::uint8_t {
  kGenCand = 0,
  kRankTest,
  kCommunicate,
  kMerge,
  kCheckpoint,
  kExpand,  // result post-processing: to BigInt, expand, canonicalise
  kCount,
};

inline constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(Phase::kCount);

/// Paper-style display name; these strings are the stable external API
/// (reports, tables, tests) and match the pre-interning phase keys.
inline constexpr const char* phase_name(Phase phase) {
  constexpr const char* kNames[kNumPhases] = {
      "gen cand", "rank test", "communicate", "merge", "checkpoint",
      "expand"};
  return kNames[static_cast<std::size_t>(phase)];
}

/// Inverse of phase_name; nullopt for names outside the interned set.
inline std::optional<Phase> phase_from_name(std::string_view name) {
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (name == phase_name(static_cast<Phase>(p)))
      return static_cast<Phase>(p);
  }
  return std::nullopt;
}

/// Accumulates wall-clock time into named phases.
class PhaseTimer {
 public:
  /// Hot path: add `seconds` to an interned phase.
  void add(Phase phase, double seconds) {
    interned_[static_cast<std::size_t>(phase)] += seconds;
  }

  /// String API: interned names hit the array, anything else lands in the
  /// ad-hoc map (created on first use).
  void add(const std::string& name, double seconds) {
    if (auto phase = phase_from_name(name)) {
      add(*phase, seconds);
    } else {
      extra_[name] += seconds;
    }
  }

  [[nodiscard]] double seconds(Phase phase) const {
    return interned_[static_cast<std::size_t>(phase)];
  }

  /// Total accumulated seconds for `name`; 0 if the phase never ran.
  [[nodiscard]] double seconds(const std::string& name) const {
    if (auto phase = phase_from_name(name)) return seconds(*phase);
    auto it = extra_.find(name);
    return it == extra_.end() ? 0.0 : it->second;
  }

  /// Merge another timer's totals into this one (phase-wise sum).
  void merge(const PhaseTimer& other) {
    for (std::size_t p = 0; p < kNumPhases; ++p)
      interned_[p] += other.interned_[p];
    for (const auto& [name, secs] : other.extra_) extra_[name] += secs;
  }

  /// Phase-wise maximum; used to aggregate per-rank timings the way the
  /// paper reports them (slowest rank bounds the iteration).
  void merge_max(const PhaseTimer& other) {
    for (std::size_t p = 0; p < kNumPhases; ++p)
      interned_[p] = std::max(interned_[p], other.interned_[p]);
    for (const auto& [name, secs] : other.extra_) {
      auto [it, inserted] = extra_.emplace(name, secs);
      if (!inserted && secs > it->second) it->second = secs;
    }
  }

  /// Name -> seconds view of every phase that accumulated time (interned
  /// and ad hoc).  Built on demand; use seconds() for single lookups.
  [[nodiscard]] std::map<std::string, double> totals() const {
    std::map<std::string, double> out = extra_;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      if (interned_[p] != 0.0)
        out[phase_name(static_cast<Phase>(p))] = interned_[p];
    }
    return out;
  }

  void clear() {
    interned_.fill(0.0);
    extra_.clear();
  }

 private:
  std::array<double, kNumPhases> interned_{};
  std::map<std::string, double> extra_;
};

/// RAII helper: adds the lifetime of the object to `timer[phase]`, and
/// records a matching trace span when tracing is installed.
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimer& timer, Phase phase)
      : timer_(timer), phase_(phase), recorder_(obs::trace()) {
    if (recorder_ != nullptr) start_us_ = recorder_->now_us();
  }

  ScopedPhase(PhaseTimer& timer, std::string phase)
      : timer_(timer), recorder_(obs::trace()) {
    if (auto interned = phase_from_name(phase)) {
      phase_ = *interned;
    } else {
      name_ = std::move(phase);
    }
    if (recorder_ != nullptr) start_us_ = recorder_->now_us();
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() {
    const double elapsed = watch_.seconds();
    if (name_.empty()) {
      timer_.add(phase_, elapsed);
    } else {
      timer_.add(name_, elapsed);
    }
    if (recorder_ != nullptr) {
      recorder_->record_complete(
          name_.empty() ? phase_name(phase_) : name_.c_str(), "phase",
          start_us_, recorder_->now_us() - start_us_);
    }
  }

 private:
  PhaseTimer& timer_;
  Phase phase_ = Phase::kGenCand;
  std::string name_;  // non-empty only for non-interned phases
  obs::TraceRecorder* recorder_;
  double start_us_ = 0.0;
  Stopwatch watch_;
};

}  // namespace elmo
