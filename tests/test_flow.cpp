// Tests for cross-rank message-flow tracing and the critical-path /
// imbalance post-processing:
//   * every simulated-MPI send opens exactly one flow ('s') and its receive
//     closes it ('f'), including under fault injection (dropped messages
//     open no flow at all, so pairing stays exact),
//   * blocked waits are classified data-wait / barrier-wait /
//     straggler-wait on the per-rank counters,
//   * analyze_flow's critical path over a fixed synthetic span stream is
//     deterministic and attributes path time to the recorded phases.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mpsim/communicator.hpp"
#include "mpsim/fault.hpp"
#include "obs/flow.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace elmo {
namespace {

using mpsim::Communicator;
using mpsim::FaultPlan;
using mpsim::Payload;
using mpsim::RunOptions;
using mpsim::run_ranks;

/// Count 's'/'f' events per flow id and instants named `drop`.
struct FlowTally {
  std::map<std::uint64_t, std::pair<int, int>> flows;  // id -> (#s, #f)
  int drops = 0;

  explicit FlowTally(const std::vector<obs::TraceEvent>& events) {
    for (const auto& event : events) {
      if (event.phase == 's') ++flows[event.id].first;
      if (event.phase == 'f') ++flows[event.id].second;
      if (event.phase == 'i' && event.name == "drop") ++drops;
    }
  }

  [[nodiscard]] int starts() const {
    int total = 0;
    for (const auto& [id, sf] : flows) total += sf.first;
    return total;
  }

  [[nodiscard]] bool all_matched() const {
    for (const auto& [id, sf] : flows) {
      if (sf.first > 0 && sf.second == 0) return false;
    }
    return true;
  }
};

TEST(FlowTrace, PointToPointPairsEverySend) {
  obs::TraceRecorder recorder;
  obs::install_trace(&recorder);
  run_ranks(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (std::uint8_t i = 0; i < 5; ++i) comm.send(1, /*tag=*/3, {i});
    } else {
      for (std::uint8_t i = 0; i < 5; ++i) comm.recv(0, 3);
    }
  });
  obs::install_trace(nullptr);

  const FlowTally tally(recorder.snapshot_events());
  EXPECT_EQ(tally.starts(), 5);
  EXPECT_TRUE(tally.all_matched());
  EXPECT_EQ(tally.drops, 0);
}

TEST(FlowTrace, DroppedMessageOpensNoFlow) {
  auto plan = std::make_shared<FaultPlan>();
  // Drop the 2nd message from rank 0 to rank 1, once (nth is 0-based).
  plan->drop_message(0, 1, /*nth=*/1, /*times=*/1);
  RunOptions options;
  options.fault_plan = plan;

  obs::TraceRecorder recorder;
  obs::install_trace(&recorder);
  run_ranks(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 0) {
          for (std::uint8_t i = 0; i < 3; ++i) comm.send(1, 0, {i});
        } else {
          // The dropped 2nd message silently vanishes: per-source FIFO
          // ordering delivers payloads {0} then {2}.
          EXPECT_EQ(comm.recv(0, 0), Payload{0});
          EXPECT_EQ(comm.recv(0, 0), Payload{2});
        }
      },
      options);
  obs::install_trace(nullptr);

  const FlowTally tally(recorder.snapshot_events());
  // 3 sends - 1 drop = 2 flows, each matched; the drop left an instant.
  EXPECT_EQ(tally.starts(), 2);
  EXPECT_TRUE(tally.all_matched());
  EXPECT_EQ(tally.drops, 1);
}

TEST(FlowTrace, AllGatherFlowsPairProducersToConsumers) {
  obs::TraceRecorder recorder;
  obs::install_trace(&recorder);
  run_ranks(3, [](Communicator& comm) {
    auto gathered =
        comm.all_gather({static_cast<std::uint8_t>(comm.rank())});
    EXPECT_EQ(gathered.size(), 3u);
  });
  obs::install_trace(nullptr);

  const FlowTally tally(recorder.snapshot_events());
  // One flow per publishing rank; every one consumed by both peers.
  EXPECT_EQ(tally.starts(), 3);
  EXPECT_TRUE(tally.all_matched());
  for (const auto& [id, sf] : tally.flows) EXPECT_EQ(sf.second, 2);
}

TEST(FlowTrace, PairingHoldsUnderStraggler) {
  auto plan = std::make_shared<FaultPlan>();
  plan->straggle(/*rank=*/1, /*delay_us=*/5'000);
  RunOptions options;
  options.fault_plan = plan;

  obs::TraceRecorder recorder;
  obs::install_trace(&recorder);
  const auto report = run_ranks(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 1) {
          comm.send(0, 0, {42});
        } else {
          EXPECT_EQ(comm.recv(1, 0), Payload{42});
        }
        comm.barrier();
      },
      options);
  obs::install_trace(nullptr);

  const FlowTally tally(recorder.snapshot_events());
  EXPECT_EQ(tally.starts(), 1);
  EXPECT_TRUE(tally.all_matched());
  // Rank 0 blocked on a known straggler: the wait is classified as
  // straggler-wait, not data-wait (the 5 ms injected delay dwarfs any
  // scheduling noise, so rank 0 reliably blocks).
  EXPECT_GT(report.ranks[0].wait_straggler_us, 0u);
  EXPECT_EQ(report.ranks[0].wait_data_us, 0u);
}

TEST(MpsimWaits, NoStragglerMeansNoStragglerWait) {
  const auto report = run_ranks(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, {1});
    } else {
      comm.recv(0, 0);
    }
    comm.barrier();
  });
  // No fault plan: blocked time can only be data-wait or barrier-wait;
  // the straggler class needs a configured straggler to ever tick.
  for (const auto& counters : report.ranks) {
    EXPECT_EQ(counters.wait_straggler_us, 0u);
  }
}

TEST(MpsimWaits, QueueDepthPeakRecorded) {
  const auto report = run_ranks(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (std::uint8_t i = 0; i < 4; ++i) comm.send(1, 0, {i});
      comm.barrier();  // all four enqueued before rank 1 drains any
    } else {
      comm.barrier();
      for (int i = 0; i < 4; ++i) comm.recv(0, 0);
    }
  });
  EXPECT_EQ(report.ranks[1].max_queue_depth, 4u);
  EXPECT_EQ(report.ranks[1].messages_received, 4u);
}

// ------------------------------------------------------ critical-path math

obs::TraceEvent span(const char* name, const char* category,
                     std::uint32_t tid, double ts_us, double dur_us) {
  obs::TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = 'X';
  event.tid = tid;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  return event;
}

/// Fixed two-lane schedule: round 0 is gated by lane 2 (150 us, with a
/// recorded gen-cand phase and a data-wait inside), round 1 by lane 1
/// (80 us, no nested spans).
std::vector<obs::TraceEvent> fixed_schedule() {
  std::vector<obs::TraceEvent> events;
  events.push_back(span("iteration", "solve", 1, 10.0, 100.0));
  events.push_back(span("iteration", "solve", 1, 120.0, 80.0));
  events.push_back(span("iteration", "solve", 2, 10.0, 150.0));
  events.push_back(span("gen cand", "phase", 2, 20.0, 50.0));
  events.push_back(span("data-wait", "wait", 2, 80.0, 40.0));
  events.push_back(span("iteration", "solve", 2, 170.0, 60.0));
  return events;
}

TEST(FlowCriticalPath, SlowestLanePerRoundJoinsPath) {
  const auto events = fixed_schedule();
  const obs::SolveReport report;
  const obs::FlowSummary flow = obs::analyze_flow(report, &events);

  EXPECT_TRUE(flow.traced);
  EXPECT_EQ(flow.critical_path_steps, 2u);
  EXPECT_DOUBLE_EQ(flow.critical_path_us, 150.0 + 80.0);
  EXPECT_DOUBLE_EQ(flow.wall_us, 230.0 - 10.0);
  // Attribution: lane 2's on-path span carries 50 us of gen-cand phase
  // (40 us of data-wait lies inside that phase and is listed alongside);
  // the rest of both path spans is "other".
  EXPECT_DOUBLE_EQ(flow.critical_path_phase_us.at("gen cand"), 50.0);
  EXPECT_DOUBLE_EQ(flow.critical_path_phase_us.at("data-wait"), 40.0);
  EXPECT_DOUBLE_EQ(flow.critical_path_phase_us.at("other"),
                   (150.0 - 50.0) + 80.0);
}

TEST(FlowCriticalPath, SubsetSpansWindowTheRounds) {
  auto events = fixed_schedule();
  // Wrap the schedule in one subset window and append a second window
  // holding one more round, gated by lane 2 (70 us).
  events.push_back(span("subset", "combined", 0, 0.0, 300.0));
  events.push_back(span("subset", "combined", 0, 300.0, 200.0));
  events.push_back(span("iteration", "solve", 1, 310.0, 50.0));
  events.push_back(span("iteration", "solve", 2, 315.0, 70.0));

  const obs::SolveReport report;
  const obs::FlowSummary flow = obs::analyze_flow(report, &events);
  EXPECT_EQ(flow.critical_path_steps, 3u);
  EXPECT_DOUBLE_EQ(flow.critical_path_us, 150.0 + 80.0 + 70.0);
}

TEST(FlowCriticalPath, OverlappingSubsetsTakeTheLongestPath) {
  // Two subsets at once.  A runs on lane 1 alone; B's world is lanes 2 and
  // 3, joined by a gather flow.  Lane 3's first round also lies inside A's
  // later-starting window: only the flow says it is B's.
  std::vector<obs::TraceEvent> events;
  events.push_back(span("subset", "combined", 1, 8.0, 292.0));
  events.push_back(span("iteration", "solve", 1, 10.0, 100.0));
  events.push_back(span("gen cand", "phase", 1, 20.0, 30.0));
  events.push_back(span("iteration", "solve", 1, 120.0, 80.0));
  events.push_back(span("subset", "combined", 2, 5.0, 395.0));
  events.push_back(span("iteration", "solve", 2, 10.0, 150.0));
  events.push_back(span("iteration", "solve", 2, 170.0, 60.0));
  events.push_back(span("iteration", "solve", 3, 12.0, 90.0));
  events.push_back(span("iteration", "solve", 3, 175.0, 200.0));
  events.push_back(span("rank test", "phase", 3, 180.0, 50.0));
  obs::TraceEvent gather;
  gather.phase = 's';
  gather.tid = 3;
  gather.id = 42;
  events.push_back(gather);
  gather.phase = 'f';
  gather.tid = 2;
  events.push_back(gather);

  const obs::SolveReport report;
  const obs::FlowSummary flow = obs::analyze_flow(report, &events);
  // A's path is 100 + 80; B's is max(150, 90) + max(60, 200).
  EXPECT_EQ(flow.critical_path_steps, 2u);
  EXPECT_DOUBLE_EQ(flow.critical_path_us, 150.0 + 200.0);
  EXPECT_DOUBLE_EQ(flow.critical_path_phase_us.at("rank test"), 50.0);
  EXPECT_EQ(flow.critical_path_phase_us.count("gen cand"), 0u);
}

TEST(FlowCriticalPath, DeterministicOnFixedSchedule) {
  const auto events = fixed_schedule();
  const obs::SolveReport report;
  const obs::FlowSummary first = obs::analyze_flow(report, &events);
  const obs::FlowSummary second = obs::analyze_flow(report, &events);
  EXPECT_EQ(first.to_json().dump(-1), second.to_json().dump(-1));
}

TEST(FlowCriticalPath, NoIterationsFallsBackToBusiestLane) {
  std::vector<obs::TraceEvent> events;
  events.push_back(span("gen cand", "phase", 1, 0.0, 30.0));
  events.push_back(span("rank test", "phase", 1, 30.0, 20.0));
  events.push_back(span("gen cand", "phase", 2, 0.0, 10.0));

  const obs::SolveReport report;
  const obs::FlowSummary flow = obs::analyze_flow(report, &events);
  EXPECT_DOUBLE_EQ(flow.critical_path_us, 50.0);
  EXPECT_EQ(flow.critical_path_steps, 2u);
}

TEST(FlowSummaryJson, CarriesEstimateAndPairing) {
  obs::SolveReport report;
  report.num_efms = 8;
  report.totals["pairs_probed"] = 123;

  std::vector<obs::TraceEvent> events;
  obs::TraceEvent start;
  start.phase = 's';
  start.id = 7;
  events.push_back(start);
  obs::TraceEvent finish = start;
  finish.phase = 'f';
  events.push_back(finish);
  obs::TraceEvent unmatched = start;
  unmatched.id = 9;
  events.push_back(unmatched);

  obs::FlowSummary flow = obs::analyze_flow(report, &events);
  flow.estimated_pairs = 120.0;
  flow.estimated_efms = 6.0;
  EXPECT_EQ(flow.flows_emitted, 2u);
  EXPECT_EQ(flow.flows_matched, 1u);
  EXPECT_EQ(flow.actual_pairs, 123u);
  EXPECT_EQ(flow.actual_efms, 8u);

  const obs::JsonValue json = flow.to_json();
  EXPECT_EQ(json.find("flows_emitted")->as_uint(), 2u);
  EXPECT_EQ(json.find("flows_matched")->as_uint(), 1u);
  const obs::JsonValue* estimate = json.find("estimate");
  ASSERT_NE(estimate, nullptr);
  EXPECT_DOUBLE_EQ(estimate->find("estimated_pairs")->as_double(), 120.0);
  EXPECT_EQ(estimate->find("actual_pairs")->as_uint(), 123u);
}

}  // namespace
}  // namespace elmo
