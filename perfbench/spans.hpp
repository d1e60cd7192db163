// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a library layer, timed from outside with
// steady_clock: its layer ("network", "compress", "nullspace", "core",
// "io", "analysis", or "bench" for the driver's own glue), a name (the
// entry point called), the span that was open on the same thread when it
// started, and start/end seconds since the recorder was created.  Spans
// stay in memory until write_json() at the end of the run.
//
// A disabled recorder hands out inert scopes, so the untraced run shares
// the same code with no clock reads and no allocation.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string layer;
  std::string name;
  int id = 0;
  int parent = -1;  // -1: a root span
  int thread = 0;
  double start_s = 0.0;
  double end_s = 0.0;

  [[nodiscard]] double seconds() const { return end_s - start_s; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: opened by Tracer::scope, closed by the destructor.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();
    /// Id of the span (-1 when the tracer is disabled).
    [[nodiscard]] int id() const { return id_; }

   private:
    friend class Tracer;
    Scope(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    Tracer* tracer_;
    int id_;
  };

  [[nodiscard]] Scope scope(const char* layer, const char* name);

  /// Snapshot of every closed span.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Write the spans as a JSON array to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  void close(int id);
  [[nodiscard]] double now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; indexed by span id
};

/// Self time per layer within the subtree rooted at span `root` (the root
/// included): each span's duration minus the time its child spans cover.
/// Children run nested on their parent's thread, so their durations add.
std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans, int root);

/// Durations of every span with the given name.
std::vector<double> span_seconds(const std::vector<Span>& spans,
                                 const std::string& name);

}  // namespace perfbench
