#include "obs/flow.hpp"

#include <algorithm>
#include <cstddef>

#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace elmo::obs {

namespace {

double sum_phase_us(const std::map<std::string, double>& phase_seconds) {
  double total = 0.0;
  for (const auto& [name, secs] : phase_seconds) total += secs;
  return total * 1e6;
}

FlowRank make_flow_rank(const RankEntry& entry) {
  FlowRank out;
  out.rank = entry.rank;
  out.busy_us = sum_phase_us(entry.phase_seconds);
  out.wait_data_us = static_cast<double>(entry.wait_data_us);
  out.wait_barrier_us = static_cast<double>(entry.wait_barrier_us);
  out.wait_straggler_us = static_cast<double>(entry.wait_straggler_us);
  out.max_queue_depth = entry.max_queue_depth;
  const double waits =
      out.wait_data_us + out.wait_barrier_us + out.wait_straggler_us;
  const double denom = out.busy_us + waits;
  out.utilization = denom > 0.0 ? out.busy_us / denom : 0.0;
  return out;
}

double busy_imbalance_pct(const std::vector<double>& busy_us) {
  double max_busy = 0.0;
  double sum_busy = 0.0;
  for (double b : busy_us) {
    max_busy = std::max(max_busy, b);
    sum_busy += b;
  }
  if (max_busy <= 0.0 || busy_us.empty()) return 0.0;
  const double mean = sum_busy / static_cast<double>(busy_us.size());
  return (max_busy - mean) / max_busy * 100.0;
}

/// The per-rank section.  Top-level rank entries when the run produced
/// them; otherwise (combined runs report ranks per subset) the subsets'
/// rank tables are folded together by the run-wide rank id, so subsets
/// that ran at once on different ranks stay apart.
std::vector<FlowRank> collect_ranks(const SolveReport& report) {
  std::vector<FlowRank> out;
  if (!report.ranks.empty()) {
    out.reserve(report.ranks.size());
    for (const auto& entry : report.ranks) out.push_back(make_flow_rank(entry));
    return out;
  }
  std::map<int, FlowRank> by_rank;
  for (const auto& subset : report.subsets) {
    for (const auto& entry : subset.ranks) {
      const FlowRank part = make_flow_rank(entry);
      FlowRank& acc = by_rank[entry.rank];
      acc.rank = entry.rank;
      acc.busy_us += part.busy_us;
      acc.wait_data_us += part.wait_data_us;
      acc.wait_barrier_us += part.wait_barrier_us;
      acc.wait_straggler_us += part.wait_straggler_us;
      acc.max_queue_depth = std::max(acc.max_queue_depth, part.max_queue_depth);
    }
  }
  out.reserve(by_rank.size());
  for (auto& [rank, acc] : by_rank) {
    const double waits =
        acc.wait_data_us + acc.wait_barrier_us + acc.wait_straggler_us;
    const double denom = acc.busy_us + waits;
    acc.utilization = denom > 0.0 ? acc.busy_us / denom : 0.0;
    out.push_back(acc);
  }
  return out;
}

FlowSubset make_flow_subset(const SubsetEntry& subset) {
  FlowSubset out;
  out.label = subset.label;
  std::vector<double> busy;
  busy.reserve(subset.ranks.size());
  double max_busy = 0.0;
  for (const auto& entry : subset.ranks) {
    const double busy_us = sum_phase_us(entry.phase_seconds);
    const double chain =
        busy_us + static_cast<double>(entry.wait_data_us +
                                      entry.wait_barrier_us +
                                      entry.wait_straggler_us);
    out.critical_path_us = std::max(out.critical_path_us, chain);
    busy.push_back(busy_us);
    max_busy = std::max(max_busy, busy_us);
  }
  out.imbalance_pct = busy_imbalance_pct(busy);
  out.utilization.reserve(busy.size());
  for (double b : busy)
    out.utilization.push_back(max_busy > 0.0 ? b / max_busy : 0.0);
  return out;
}

struct Span {
  const TraceEvent* event;
  double end;
};

/// Union-find over trace lanes: the lanes one simulated world's flows
/// connect (a message joins its sender's and receiver's lanes, an
/// all-gather every participant's).
class LaneGroups {
 public:
  explicit LaneGroups(const std::vector<TraceEvent>& events) {
    std::map<std::uint64_t, std::uint32_t> first_lane;
    for (const auto& event : events) {
      if (event.phase != 's' && event.phase != 'f') continue;
      auto [it, fresh] = first_lane.emplace(event.id, event.tid);
      if (!fresh) parent_[find(event.tid)] = find(it->second);
    }
  }
  std::uint32_t find(std::uint32_t lane) {
    auto it = parent_.find(lane);
    if (it == parent_.end()) return lane;
    const std::uint32_t root = find(it->second);
    it->second = root;
    return root;
  }

 private:
  std::map<std::uint32_t, std::uint32_t> parent_;
};

/// Cross-rank critical path through the iteration DAG.  Each iteration
/// span belongs to one window: the subset span that contains it on a lane
/// of its own world (a subset's task thread is rank 0 of its world), else
/// the latest-starting subset span that contains it, else — no subset
/// spans — the whole run.  Within a window, iterations are aligned by
/// their per-lane ordinal and the slowest lane's span of every round joins
/// the window's path.  The run's path is the longest chain of windows that
/// follow one another in time: the longest subset path when the subsets
/// run at once, their sum when they run one after another.  The chosen
/// spans' nested phase spans attribute the path time; wait-class spans are
/// reported alongside (they lie inside their enclosing phase).
void analyze_critical_path(const std::vector<TraceEvent>& events,
                           FlowSummary& out) {
  std::map<std::uint32_t, std::vector<Span>> lanes;
  std::vector<Span> subset_spans;
  double first_ts = 0.0;
  double last_end = 0.0;
  bool any_span = false;
  for (const auto& event : events) {
    if (event.phase != 'X') continue;
    const Span span{&event, event.ts_us + event.dur_us};
    if (!any_span || event.ts_us < first_ts) first_ts = event.ts_us;
    if (!any_span || span.end > last_end) last_end = span.end;
    any_span = true;
    lanes[event.tid].push_back(span);
    if (event.name == "subset") subset_spans.push_back(span);
  }
  if (!any_span) return;
  out.wall_us = last_end - first_ts;

  for (auto& [tid, spans] : lanes) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span& a, const Span& b) {
                       return a.event->ts_us < b.event->ts_us;
                     });
  }
  std::stable_sort(subset_spans.begin(), subset_spans.end(),
                   [](const Span& a, const Span& b) {
                     return a.event->ts_us < b.event->ts_us;
                   });

  struct Step {
    std::uint32_t tid;
    const Span* span;
  };
  struct Window {
    double start;
    double end;
    std::uint32_t tid;
    std::map<std::uint32_t, std::vector<const Span*>> rounds;
    double path_us = 0.0;
    std::vector<Step> path;
  };
  std::vector<Window> windows;
  if (subset_spans.empty()) {
    windows.push_back({first_ts, last_end, 0, {}, 0.0, {}});
  } else {
    for (const Span& span : subset_spans)
      windows.push_back({span.event->ts_us, span.end, span.event->tid, {},
                         0.0, {}});
  }

  LaneGroups groups(events);
  for (const auto& [tid, spans] : lanes) {
    for (const Span& span : spans) {
      if (span.event->name != "iteration") continue;
      Window* owner = nullptr;
      for (Window& window : windows) {
        if (span.event->ts_us < window.start || span.end > window.end)
          continue;
        owner = &window;
        if (subset_spans.empty() ||
            groups.find(window.tid) == groups.find(tid))
          break;
      }
      if (owner != nullptr) owner->rounds[tid].push_back(&span);
    }
  }

  bool any_iteration = false;
  for (Window& window : windows) {
    std::size_t max_rounds = 0;
    for (const auto& [tid, spans] : window.rounds)
      max_rounds = std::max(max_rounds, spans.size());
    for (std::size_t k = 0; k < max_rounds; ++k) {
      const Span* slowest = nullptr;
      std::uint32_t slowest_tid = 0;
      for (const auto& [tid, spans] : window.rounds) {
        if (k >= spans.size()) continue;
        if (slowest == nullptr ||
            spans[k]->event->dur_us > slowest->event->dur_us) {
          slowest = spans[k];
          slowest_tid = tid;
        }
      }
      any_iteration = true;
      window.path_us += slowest->event->dur_us;
      window.path.push_back({slowest_tid, slowest});
    }
  }

  // Longest chain of windows, each starting after its predecessor ended.
  // Windows are sorted by start, so every predecessor comes first.
  std::vector<double> chain(windows.size(), 0.0);
  std::vector<std::size_t> before(windows.size(), windows.size());
  std::size_t last = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (windows[j].end <= windows[i].start && chain[j] > chain[i]) {
        chain[i] = chain[j];
        before[i] = j;
      }
    }
    chain[i] += windows[i].path_us;
    if (chain[i] > chain[last]) last = i;
  }

  // Attribution: nested spans of the on-path iteration span on its lane.
  auto attribute = [&](std::uint32_t tid, const Span& chosen) {
    double phase_total = 0.0;
    for (const Span& nested : lanes[tid]) {
      if (nested.event == chosen.event) continue;
      if (nested.event->ts_us < chosen.event->ts_us ||
          nested.end > chosen.end) {
        continue;
      }
      const std::string category = nested.event->category;
      if (category == "phase") {
        out.critical_path_phase_us[nested.event->name] +=
            nested.event->dur_us;
        phase_total += nested.event->dur_us;
      } else if (category == "wait") {
        out.critical_path_phase_us[nested.event->name] +=
            nested.event->dur_us;
      }
    }
    const double other = chosen.event->dur_us - phase_total;
    if (other > 0.0) out.critical_path_phase_us["other"] += other;
  };
  for (std::size_t i = last; i < windows.size(); i = before[i]) {
    for (const Step& step : windows[i].path) {
      out.critical_path_us += step.span->event->dur_us;
      ++out.critical_path_steps;
      attribute(step.tid, *step.span);
    }
  }

  // No iteration spans recorded (e.g. a trace of pure collectives): fall
  // back to the busiest lane's phase time as the path.
  if (!any_iteration) {
    for (const auto& [tid, spans] : lanes) {
      double lane_total = 0.0;
      std::uint64_t lane_steps = 0;
      for (const Span& span : spans) {
        if (std::string(span.event->category) != "phase") continue;
        lane_total += span.event->dur_us;
        ++lane_steps;
      }
      if (lane_total > out.critical_path_us) {
        out.critical_path_us = lane_total;
        out.critical_path_steps = lane_steps;
      }
    }
  }
}

void analyze_flow_pairing(const std::vector<TraceEvent>& events,
                          FlowSummary& out) {
  std::map<std::uint64_t, std::pair<bool, bool>> flows;  // id -> (s, f)
  for (const auto& event : events) {
    if (event.phase == 's') flows[event.id].first = true;
    if (event.phase == 'f') flows[event.id].second = true;
  }
  for (const auto& [id, seen] : flows) {
    if (!seen.first) continue;
    ++out.flows_emitted;
    if (seen.second) ++out.flows_matched;
  }
}

}  // namespace

FlowSummary analyze_flow(const SolveReport& report,
                         const std::vector<TraceEvent>* events) {
  FlowSummary out;
  out.ranks = collect_ranks(report);
  {
    std::vector<double> busy;
    busy.reserve(out.ranks.size());
    for (const auto& rank : out.ranks) busy.push_back(rank.busy_us);
    out.imbalance_pct = busy_imbalance_pct(busy);
  }
  out.subsets.reserve(report.subsets.size());
  for (const auto& subset : report.subsets)
    out.subsets.push_back(make_flow_subset(subset));

  auto total = report.totals.find("pairs_probed");
  if (total != report.totals.end()) out.actual_pairs = total->second;
  out.actual_efms = report.num_efms;

  if (events != nullptr) {
    out.traced = true;
    analyze_critical_path(*events, out);
    analyze_flow_pairing(*events, out);
  }
  return out;
}

JsonValue FlowSummary::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("traced", JsonValue(traced));
  out.set("critical_path_us", JsonValue(critical_path_us));
  out.set("critical_path_steps", JsonValue(critical_path_steps));
  out.set("wall_us", JsonValue(wall_us));
  JsonValue phases = JsonValue::object();
  for (const auto& [name, us] : critical_path_phase_us)
    phases.set(name, JsonValue(us));
  out.set("critical_path_phase_us", std::move(phases));
  out.set("flows_emitted", JsonValue(flows_emitted));
  out.set("flows_matched", JsonValue(flows_matched));
  out.set("imbalance_pct", JsonValue(imbalance_pct));

  JsonValue ranks_json = JsonValue::array();
  for (const auto& rank : ranks) {
    JsonValue entry = JsonValue::object();
    entry.set("rank", JsonValue(rank.rank));
    entry.set("busy_us", JsonValue(rank.busy_us));
    entry.set("wait_data_us", JsonValue(rank.wait_data_us));
    entry.set("wait_barrier_us", JsonValue(rank.wait_barrier_us));
    entry.set("wait_straggler_us", JsonValue(rank.wait_straggler_us));
    entry.set("utilization", JsonValue(rank.utilization));
    entry.set("max_queue_depth", JsonValue(rank.max_queue_depth));
    ranks_json.push_back(std::move(entry));
  }
  out.set("ranks", std::move(ranks_json));

  JsonValue subsets_json = JsonValue::array();
  for (const auto& subset : subsets) {
    JsonValue entry = JsonValue::object();
    entry.set("label", JsonValue(subset.label));
    entry.set("critical_path_us", JsonValue(subset.critical_path_us));
    entry.set("imbalance_pct", JsonValue(subset.imbalance_pct));
    JsonValue util = JsonValue::array();
    for (double u : subset.utilization) util.push_back(JsonValue(u));
    entry.set("utilization", std::move(util));
    subsets_json.push_back(std::move(entry));
  }
  out.set("subsets", std::move(subsets_json));

  JsonValue estimate = JsonValue::object();
  estimate.set("estimated_pairs", JsonValue(estimated_pairs));
  estimate.set("actual_pairs", JsonValue(actual_pairs));
  estimate.set("estimated_efms", JsonValue(estimated_efms));
  estimate.set("actual_efms", JsonValue(actual_efms));
  out.set("estimate", std::move(estimate));
  return out;
}

}  // namespace elmo::obs
