// Candidate-generation engine benchmark (BENCH_candidates.json).
//
// Measures the tiled/SIMD engine (nullspace/pairgen.hpp) against
// the scalar row-major reference (generate_candidate_refs_reference — the
// pre-engine code path, kept as the differential oracle) over synthetic
// pair spaces at three support widths, plus the end-to-end cost of the
// first yeast iterations.  Scenarios isolate the regimes that matter:
//
//   *_probe   every pair fails the OR+popcount pre-test — the pure kernel
//             (SIMD + tiling),
//   *_gen     most pairs survive — exact-support emission dominates.
//
// --json PATH writes the machine-readable record; --baseline PATH compares
// the engine-vs-reference speedup per scenario against a previous record
// and fails (exit 2) on a >10% relative drop (speedups are in-binary
// ratios, so the gate is portable across machines, unlike raw seconds);
// --min-speedup X additionally requires the yeast-width pretest scenario
// (dyn2_probe) to clear X.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "compress/compression.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "obs/json.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace {

using namespace elmo;

/// Random columns mirroring bench_micro_candidates: nnz drawn from
/// 8 + below(12) insertions (values may collide or be zero, so realised
/// popcounts spread over ~7..18).  `fixed_nnz` != 0 instead forces every
/// support to exactly that popcount with nonzero values — used by the
/// *_probe scenarios, where a popcount band lets the rank bound sit between
/// the largest single support and the smallest pair union, so every pair is
/// probed and rejected by the pre-test alone (no emission).
template <typename Support>
std::vector<FluxColumn<CheckedI64, Support>> synthetic_columns(
    std::size_t count, std::size_t q, std::uint64_t seed,
    std::size_t fixed_nnz = 0) {
  Rng rng(seed);
  std::vector<FluxColumn<CheckedI64, Support>> columns;
  columns.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    std::vector<CheckedI64> values(q, CheckedI64(0));
    if (fixed_nnz != 0) {
      std::size_t placed = 0;
      while (placed < fixed_nnz) {
        auto& slot = values[rng.below(q)];
        if (slot != CheckedI64(0)) continue;
        const auto magnitude = static_cast<std::int64_t>(1 + rng.below(3));
        slot = CheckedI64(rng.below(2) != 0 ? magnitude : -magnitude);
        ++placed;
      }
    } else {
      std::size_t nnz = 8 + rng.below(12);
      for (std::size_t k = 0; k < nnz; ++k)
        values[rng.below(q)] = CheckedI64(rng.range(-3, 3));
      values[rng.below(q)] = CheckedI64(1);
    }
    columns.push_back(
        FluxColumn<CheckedI64, Support>::from_values(std::move(values)));
  }
  return columns;
}

struct PathResult {
  double seconds = 1e300;           // best of reps
  std::uint64_t pairs = 0;
  std::uint64_t survivors = 0;

  [[nodiscard]] double pairs_per_sec() const {
    return static_cast<double>(pairs) / seconds;
  }
  [[nodiscard]] double survivors_per_sec() const {
    return static_cast<double>(survivors) / seconds;
  }
};

struct ScenarioResult {
  std::string name;
  PathResult engine;
  PathResult reference;

  [[nodiscard]] double speedup() const {
    return reference.seconds / engine.seconds;
  }
  /// Probe scenarios measure the optimised pre-test path and their
  /// speedups are stable multi-x ratios — those are gated.  The *_gen
  /// scenarios are emission-bound (speedup ~1.0-1.2x, allocator-sensitive)
  /// and recorded informationally only.
  [[nodiscard]] bool gated() const {
    return name.find("_probe") != std::string::npos;
  }
};

/// One timed measurement: `inner` full-range generation passes under one
/// stopwatch (sub-millisecond single passes are too noisy to gate on — the
/// caller sizes `inner` so a sample spans a few milliseconds), averaged to
/// per-pass seconds.  `use_engine` picks the path.
template <typename Support>
PathResult run_path(
    const std::vector<FluxColumn<CheckedI64, Support>>& columns,
    std::size_t row, const RowClassification& cls, std::size_t rank,
    bool use_engine, int inner, PathResult best) {
  IterationStats stats;
  Stopwatch watch;
  for (int pass = 0; pass < inner; ++pass) {
    stats = IterationStats{};
    std::vector<CandidateRef<Support>> refs;
    std::uint64_t cursor = 0;
    if (use_engine) {
      generate_candidate_refs(columns, row, cls, &cursor, cls.pair_count(),
                              rank, SIZE_MAX, refs, stats);
    } else {
      generate_candidate_refs_reference(columns, row, cls, &cursor,
                                        cls.pair_count(), rank, SIZE_MAX,
                                        refs, stats);
    }
  }
  const double seconds = watch.seconds() / inner;
  if (seconds < best.seconds) best.seconds = seconds;
  best.pairs = stats.pairs_probed;
  best.survivors = stats.pretest_survivors;
  return best;
}

template <typename Support>
ScenarioResult run_scenario(const std::string& name, std::size_t q,
                            std::size_t rank, int reps,
                            std::size_t fixed_nnz = 0) {
  auto columns = synthetic_columns<Support>(2048, q, 5, fixed_nnz);
  RowClassification cls;
  std::size_t row = 0;
  for (std::size_t r = 0; r < q; ++r) {
    auto c = classify_row(columns, r);
    if (c.pair_count() > cls.pair_count()) {
      cls = std::move(c);
      row = r;
    }
  }
  ScenarioResult result;
  result.name = name;
  // Warmup pass per path sizes the inner loop so each timed sample spans a
  // few milliseconds regardless of how fast the path is.
  const auto size_inner = [&](bool use_engine) {
    Stopwatch watch;
    run_path(columns, row, cls, rank, use_engine, 1, PathResult{});
    const double once = std::max(watch.seconds(), 1e-7);
    return static_cast<int>(std::clamp(3e-3 / once, 1.0, 500.0));
  };
  const int engine_inner = size_inner(true);
  const int reference_inner = size_inner(false);
  // Interleave the paths within each repetition so drift hits both equally.
  for (int rep = 0; rep < reps; ++rep) {
    result.engine =
        run_path(columns, row, cls, rank, true, engine_inner, result.engine);
    result.reference = run_path(columns, row, cls, rank, false,
                                reference_inner, result.reference);
  }
  return result;
}

double yeast_first_iterations_seconds(int reps, std::uint64_t* modes_out) {
  auto compressed = compress(models::yeast_network_1());
  auto problem = to_problem<CheckedI64>(compressed);
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    SolverOptions options;
    int iterations = 0;
    options.on_iteration = [&](const IterationStats&) {
      if (++iterations >= 8) throw std::runtime_error("stop");
    };
    Stopwatch watch;
    try {
      auto result = solve_efms<CheckedI64, DynBitset>(problem, options);
      *modes_out = result.columns.size();
    } catch (const std::runtime_error&) {
      *modes_out = 0;  // early stop: column count unavailable
    }
    best = std::min(best, watch.seconds());
  }
  return best;
}

double mega(double per_sec) { return per_sec / 1e6; }

}  // namespace

int main(int argc, char** argv) {
  using namespace elmo;
  std::string json_path;
  std::string baseline_path;
  double max_regression_pct = 10.0;
  double min_speedup = 0.0;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--baseline") && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--max-regression-pct") && i + 1 < argc) {
      max_regression_pct = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--min-speedup") && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
      if (reps < 1) reps = 1;
    }
  }
  std::printf("== candidate-generation engine vs scalar reference ==\n");
  std::printf("SIMD kernel active: %s\n\n",
              pairgen_detail::simd_selectable() ? "yes (AVX2)" : "no (scalar)");

  std::vector<ScenarioResult> scenarios;
  // Widths: 60 reactions (one word), 66 (two words — the yeast reduction),
  // 500 (eight words — genome scale).  Probe scenarios fix every support at
  // popcount 12 (60 for the wide case) and set the rank bound just above
  // it, as in a solve (no column wider than rank + 1), yet every pair union
  // misses the bound, so the run measures the pre-test kernel and nothing
  // else.  Gen scenarios relax the bound so every pair survives into
  // exact-support emission.
  scenarios.push_back(run_scenario<Bitset64>("b64_probe", 60, 11, reps, 12));
  scenarios.push_back(run_scenario<Bitset64>("b64_gen", 60, 35, reps));
  scenarios.push_back(run_scenario<DynBitset>("dyn2_probe", 66, 11, reps, 12));
  scenarios.push_back(run_scenario<DynBitset>("dyn2_gen", 66, 35, reps));
  scenarios.push_back(
      run_scenario<DynBitset>("dyn8_probe", 500, 59, reps, 60));
  scenarios.push_back(run_scenario<DynBitset>("dyn8_gen", 500, 125, reps, 60));

  Table table({"scenario", "pairs", "engine Mpairs/s", "ref Mpairs/s",
               "speedup"});
  for (const auto& s : scenarios) {
    char eng[32], ref[32], sp[32];
    std::snprintf(eng, sizeof eng, "%.1f", mega(s.engine.pairs_per_sec()));
    std::snprintf(ref, sizeof ref, "%.1f",
                  mega(s.reference.pairs_per_sec()));
    std::snprintf(sp, sizeof sp, "%.2fx", s.speedup());
    table.add_row({s.name, with_commas(s.engine.pairs), eng, ref, sp});
  }
  std::fputs(
      table.render("synthetic 2048-column pair spaces, best of reps").c_str(),
      stdout);

  std::uint64_t yeast_modes = 0;
  const double yeast_seconds =
      yeast_first_iterations_seconds(reps, &yeast_modes);
  std::printf("\nyeast Network I, first 8 iterations (serial, modular rank "
              "test): %.2f ms\n",
              yeast_seconds * 1e3);

  bool gate_failed = false;

  // Acceptance bound: pretest throughput at the yeast width.
  if (min_speedup > 0.0) {
    for (const auto& s : scenarios) {
      if (s.name != "dyn2_probe") continue;
      const bool ok = s.speedup() >= min_speedup;
      std::printf("min-speedup gate %s: %.2fx (limit %.2fx) -> %s\n",
                  s.name.c_str(), s.speedup(), min_speedup,
                  ok ? "ok" : "FAIL");
      gate_failed = gate_failed || !ok;
    }
  }

  // Regression gate vs a previous record: speedups are in-binary ratios,
  // comparable across machines; raw seconds are not and are informational.
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    obs::JsonValue doc = obs::parse_json(text.str(), &error);
    const obs::JsonValue* base_scenarios =
        error.empty() ? doc.find("scenarios") : nullptr;
    if (base_scenarios == nullptr) {
      std::fprintf(stderr, "cannot read baseline %s: %s\n",
                   baseline_path.c_str(),
                   error.empty() ? "missing scenarios" : error.c_str());
      return 1;
    }
    std::printf("\nvs baseline %s (limit -%.1f%%):\n", baseline_path.c_str(),
                max_regression_pct);
    for (const auto& s : scenarios) {
      const obs::JsonValue* node = base_scenarios->find(s.name);
      const obs::JsonValue* speedup_node =
          node != nullptr ? node->find("speedup") : nullptr;
      if (speedup_node == nullptr) {
        std::printf("  %-10s (new scenario, no baseline)\n", s.name.c_str());
        continue;
      }
      const double base = speedup_node->as_double();
      const double delta_pct = (s.speedup() / base - 1.0) * 100.0;
      if (!s.gated()) {
        std::printf("  %-10s %.2fx vs %.2fx (%+.1f%%) -> informational\n",
                    s.name.c_str(), s.speedup(), base, delta_pct);
        continue;
      }
      const bool ok = delta_pct >= -max_regression_pct;
      std::printf("  %-10s %.2fx vs %.2fx (%+.1f%%) -> %s\n", s.name.c_str(),
                  s.speedup(), base, delta_pct, ok ? "ok" : "FAIL");
      gate_failed = gate_failed || !ok;
    }
  }

  if (!json_path.empty()) {
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("bench", obs::JsonValue("candidates"));
    doc.set("simd_active", obs::JsonValue(pairgen_detail::simd_selectable()));
    doc.set("reps", obs::JsonValue(reps));
    obs::JsonValue scenario_json = obs::JsonValue::object();
    for (const auto& s : scenarios) {
      obs::JsonValue entry = obs::JsonValue::object();
      entry.set("pairs", obs::JsonValue(s.engine.pairs));
      entry.set("survivors", obs::JsonValue(s.engine.survivors));
      obs::JsonValue engine = obs::JsonValue::object();
      engine.set("seconds", obs::JsonValue(s.engine.seconds));
      engine.set("pairs_per_sec", obs::JsonValue(s.engine.pairs_per_sec()));
      engine.set("survivors_per_sec",
                 obs::JsonValue(s.engine.survivors_per_sec()));
      obs::JsonValue reference = obs::JsonValue::object();
      reference.set("seconds", obs::JsonValue(s.reference.seconds));
      reference.set("pairs_per_sec",
                    obs::JsonValue(s.reference.pairs_per_sec()));
      reference.set("survivors_per_sec",
                    obs::JsonValue(s.reference.survivors_per_sec()));
      entry.set("engine", std::move(engine));
      entry.set("reference", std::move(reference));
      entry.set("speedup", obs::JsonValue(s.speedup()));
      entry.set("gated", obs::JsonValue(s.gated()));
      scenario_json.set(s.name, std::move(entry));
    }
    doc.set("scenarios", std::move(scenario_json));
    obs::JsonValue end_to_end = obs::JsonValue::object();
    end_to_end.set("yeast8_seconds", obs::JsonValue(yeast_seconds));
    end_to_end.set("yeast8_columns", obs::JsonValue(yeast_modes));
    doc.set("end_to_end", std::move(end_to_end));
    std::FILE* out = std::fopen(json_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string dumped = doc.dump(2);
    std::fwrite(dumped.data(), 1, dumped.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return gate_failed ? 2 : 0;
}
