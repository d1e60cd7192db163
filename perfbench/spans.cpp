#include "spans.hpp"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

// Innermost open span on this thread (the parent of the next one).
thread_local int t_open_span = -1;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

Tracer::Scope Tracer::scope(const char* layer, const char* name) {
  if (!enabled_) return Scope(nullptr, -1);
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = t_open_span;
  span.thread = thread_index();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    span.id = id;
    spans_.push_back(std::move(span));
  }
  t_open_span = id;
  // Read the clock last so the bookkeeping above is not charged to the span.
  const double start = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].start_s = start;
  return Scope(this, id);
}

void Tracer::close(int id) {
  const double end = now();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = end;
  t_open_span = span.parent;
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  const auto all = spans();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("[\n", file);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(file,
                 "  {\"id\": %d, \"parent\": %d, \"thread\": %d, "
                 "\"layer\": \"%s\", \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f}%s\n",
                 s.id, s.parent, s.thread, s.layer.c_str(), s.name.c_str(),
                 s.start_s, s.end_s, i + 1 < all.size() ? "," : "");
  }
  std::fputs("]\n", file);
  return std::fclose(file) == 0;
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans, int root) {
  // Spans are stored in opening order, so a child's id exceeds its
  // parent's: one forward pass finds the subtree.
  std::vector<bool> inside(spans.size(), false);
  std::vector<double> child_seconds(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.id == root) {
      inside[static_cast<std::size_t>(s.id)] = true;
    } else if (s.parent >= 0 && inside[static_cast<std::size_t>(s.parent)]) {
      inside[static_cast<std::size_t>(s.id)] = true;
      child_seconds[static_cast<std::size_t>(s.parent)] += s.seconds();
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    const auto i = static_cast<std::size_t>(s.id);
    if (inside[i]) self[s.layer] += s.seconds() - child_seconds[i];
  }
  return self;
}

std::vector<double> span_seconds(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == name) out.push_back(s.seconds());
  return out;
}

}  // namespace perfbench
