// Rank-test engine benchmark (BENCH_ranktest.json).
//
// Measures the sparse amortized engine (nullspace/sparse_rank.hpp) against
// the dense-modular tester (nullspace/modular_rank.hpp — the engine's
// fallback, kept as the in-binary reference) on the support populations
// that dominate solver time:
//
//   yeast1_boundary   real candidate supports harvested from the first
//                     iterations of the Network I solve (each candidate
//                     sits at the nullity boundary by the support-union
//                     pretest — the population the solver actually pays
//                     for), replayed iteration by iteration with the
//                     engine's warm cache active; begin_iteration() is
//                     timed as part of every engine pass.  The >= 3x gate.
//   yeast1_cold       the same harvested supports served without the
//                     per-iteration cache — isolates the amortization win
//                     from the sparse-gather win.
//   yeast1_seeded     random supports at |S| in rank-1 .. rank+1 — a
//                     degenerate regime (nullity far above 1, both testers
//                     abort early); informational, not gated.
//   ecoli_boundary    harvested candidates on the E. coli core model — a
//                     denser stoichiometry, regression-gated.
//
// The end-to-end section solves the knockout-yeast instance with the
// solver's engine and records total + rank-test-phase seconds
// (informational; the gates compare the testers directly).
//
// --json PATH writes the machine-readable record; --baseline PATH compares
// per-scenario speedups (in-binary ratios, portable across machines)
// against a previous record and fails (exit 2) on a >10% relative drop;
// --min-speedup X additionally requires yeast1_boundary to clear X — the
// ISSUE 9 acceptance bound.
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
#include "bitset/dynbitset.hpp"
#include "compress/compression.hpp"
#include "models/ecoli_core.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/modular_rank.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "nullspace/sparse_rank.hpp"
#include "nullspace/stats.hpp"
#include "obs/json.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace {

using namespace elmo;

/// One solver iteration's worth of harvested candidate supports plus the
/// common zero rows its warm cache would be built from.
struct IterationSupports {
  std::vector<std::uint32_t> common_rows;
  std::vector<DynBitset> supports;
};

/// A prepared problem, its initial basis (the testers are constructed from
/// it, exactly as in solve_nullspace) and a support population grouped by
/// iteration.  `warm` selects whether engine passes replay
/// begin_iteration() before each group.
struct Fixture {
  EfmProblem<CheckedI64> problem;
  InitialBasis<CheckedI64, DynBitset> basis;
  std::vector<IterationSupports> iterations;
  bool warm = false;

  [[nodiscard]] std::size_t total_tests() const {
    std::size_t n = 0;
    for (const auto& it : iterations) n += it.supports.size();
    return n;
  }
};

/// Random supports at the accept boundary (|S| in rank-1 .. rank+1).
/// Degenerate — nullity is far above 1 almost surely, so both testers
/// abort early — kept as an informational scenario for that regime.
Fixture seeded_fixture(const Network& network, std::uint64_t seed,
                       std::size_t count) {
  Fixture fixture;
  fixture.problem = prepare_problem(
                        to_problem<CheckedI64>(compress(network)))
                        .problem;
  fixture.basis =
      compute_initial_basis<CheckedI64, DynBitset>(fixture.problem);
  Rng rng(seed);
  const std::size_t q = fixture.problem.num_reactions();
  fixture.iterations.emplace_back();
  for (std::size_t c = 0; c < count; ++c) {
    DynBitset support(q);
    const std::size_t size =
        fixture.basis.stoichiometry_rank - 1 + rng.below(3);
    while (support.count() < size) support.set(rng.below(q));
    fixture.iterations.back().supports.push_back(std::move(support));
  }
  return fixture;
}

/// Replays the serial nullspace loop (classify -> generate/test -> merge,
/// the exact candidate stream of solve_nullspace with the rank test) and
/// records every support the elementarity oracle is asked about, grouped
/// by iteration, until `max_tests` have been collected.  The oracle
/// answers through the dense-modular tester so the matrix evolves
/// identically to a real solve.
Fixture harvest_fixture(const Network& network, std::size_t max_tests) {
  Fixture fixture;
  fixture.problem = prepare_problem(
                        to_problem<CheckedI64>(compress(network)))
                        .problem;
  fixture.basis =
      compute_initial_basis<CheckedI64, DynBitset>(fixture.problem);
  fixture.warm = true;
  auto columns = fixture.basis.columns;
  ModularRankTester<CheckedI64> oracle(fixture.problem.stoichiometry,
                                       columns);
  std::size_t collected = 0;
  for (std::size_t row : fixture.basis.processing_order) {
    auto cls = classify_row(columns, row);
    IterationSupports group;
    group.common_rows = iteration_common_zero_rows(
        columns, cls.positive, cls.negative, row);
    auto record = [&](const DynBitset& support) {
      if (collected < max_tests) {
        group.supports.push_back(support);
        ++collected;
      }
      return oracle.is_elementary(support);
    };
    IterationStats iteration;
    PhaseTimer phases;
    std::vector<FluxColumn<CheckedI64, DynBitset>> candidates;
    process_pair_range(columns, row, cls, fixture.basis.stoichiometry_rank,
                       0, cls.pair_count(), std::size_t{1} << 21, record,
                       iteration, phases, candidates);
    columns = merge_next(std::move(columns), cls,
                         fixture.problem.reversible[row],
                         std::move(candidates));
    if (!group.supports.empty()) fixture.iterations.push_back(std::move(group));
    if (collected >= max_tests) break;
  }
  return fixture;
}

struct PathResult {
  double seconds = 1e300;  // best of reps, per full pass over the supports
  std::uint64_t tests = 0;
  std::uint64_t accepts = 0;

  [[nodiscard]] double tests_per_sec() const {
    return static_cast<double>(tests) / seconds;
  }
};

struct ScenarioResult {
  std::string name;
  PathResult engine;
  PathResult reference;
  bool gated = true;

  [[nodiscard]] double speedup() const {
    return reference.seconds / engine.seconds;
  }
};

/// One timed measurement: `inner` passes over the whole support population
/// under one stopwatch, averaged to per-pass seconds.  The engine pass
/// replays begin_iteration() before each warm iteration group — the
/// amortized cache build is part of the measured cost, as in the solver.
template <typename TestPass>
PathResult run_path(const Fixture& fixture, TestPass&& pass, int inner,
                    PathResult best) {
  std::uint64_t accepts = 0;
  Stopwatch watch;
  for (int i = 0; i < inner; ++i) {
    accepts = pass();
  }
  const double seconds = watch.seconds() / inner;
  if (seconds < best.seconds) best.seconds = seconds;
  best.tests = fixture.total_tests();
  best.accepts = accepts;
  return best;
}

ScenarioResult run_scenario(const std::string& name, const Fixture& fixture,
                            int reps) {
  SparseRankTester<CheckedI64> engine(fixture.problem.stoichiometry,
                                      fixture.basis.columns);
  ModularRankTester<CheckedI64> reference(fixture.problem.stoichiometry,
                                          fixture.basis.columns);

  auto engine_pass = [&]() {
    std::uint64_t accepts = 0;
    for (const auto& group : fixture.iterations) {
      if (fixture.warm) engine.begin_iteration(group.common_rows);
      for (const auto& support : group.supports) {
        accepts += engine.is_elementary(support) ? 1 : 0;
      }
    }
    return accepts;
  };
  auto reference_pass = [&]() {
    std::uint64_t accepts = 0;
    for (const auto& group : fixture.iterations) {
      for (const auto& support : group.supports) {
        accepts += reference.is_elementary(support) ? 1 : 0;
      }
    }
    return accepts;
  };

  // Differential check before timing: the engine must return the dense
  // tester's verdict on every support (both compute the same rank mod p).
  for (const auto& group : fixture.iterations) {
    if (fixture.warm) engine.begin_iteration(group.common_rows);
    for (const auto& support : group.supports) {
      if (engine.is_elementary(support) !=
          reference.is_elementary(support)) {
        std::fprintf(stderr, "%s: verdict mismatch\n", name.c_str());
        std::exit(1);
      }
    }
  }

  std::fprintf(stderr,
               "[%s] q=%zu m=%zu k=%zu rank=%zu iters=%zu tests=%zu "
               "warm=%llu nnz=%llu\n",
               name.c_str(), fixture.problem.num_reactions(),
               fixture.problem.num_metabolites(),
               fixture.basis.columns.size(),
               fixture.basis.stoichiometry_rank, fixture.iterations.size(),
               fixture.total_tests(),
               static_cast<unsigned long long>(
                   engine.stats().warmstart_reuses),
               static_cast<unsigned long long>(engine.stats().gathered_nnz));
  engine.reset_stats();

  ScenarioResult result;
  result.name = name;
  const auto size_inner = [&](auto&& pass) {
    Stopwatch watch;
    pass();
    const double once = std::max(watch.seconds(), 1e-7);
    return static_cast<int>(std::clamp(3e-3 / once, 1.0, 500.0));
  };
  const int engine_inner = size_inner(engine_pass);
  const int reference_inner = size_inner(reference_pass);
  // Interleave the paths within each repetition so drift hits both equally.
  for (int rep = 0; rep < reps; ++rep) {
    result.engine =
        run_path(fixture, engine_pass, engine_inner, result.engine);
    result.reference =
        run_path(fixture, reference_pass, reference_inner, result.reference);
  }
  return result;
}

struct EndToEnd {
  double seconds = 1e300;
  double ranktest_seconds = 1e300;
  std::uint64_t modes = 0;
};

/// The solver's own engine end to end (informational, ungated): best of
/// `reps` knockout-yeast solves, total and rank-test phase seconds.
EndToEnd knockout_yeast_end_to_end(int reps) {
  auto problem =
      to_problem<CheckedI64>(compress(bench::network_1(/*full=*/false)));
  EndToEnd out;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    auto result = solve_efms<CheckedI64, DynBitset>(problem);
    out.seconds = std::min(out.seconds, watch.seconds());
    out.ranktest_seconds = std::min(
        out.ranktest_seconds, result.stats.phases.totals()["rank test"]);
    out.modes = result.columns.size();
  }
  return out;
}

double kilo(double per_sec) { return per_sec / 1e3; }

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
  std::printf("== sparse rank-test engine vs dense-modular reference ==\n\n");

  std::vector<ScenarioResult> scenarios;
  Fixture yeast_harvest = harvest_fixture(models::yeast_network_1(), 4096);
  scenarios.push_back(run_scenario("yeast1_boundary", yeast_harvest, reps));
  yeast_harvest.warm = false;
  scenarios.push_back(run_scenario("yeast1_cold", yeast_harvest, reps));
  scenarios.push_back(run_scenario(
      "yeast1_seeded",
      seeded_fixture(models::yeast_network_1(), 33, 256), reps));
  scenarios.back().gated = false;
  scenarios.push_back(run_scenario(
      "ecoli_boundary", harvest_fixture(models::ecoli_core(), 2048), reps));

  Table table({"scenario", "tests", "accepts", "engine ktests/s",
               "ref ktests/s", "speedup"});
  for (const auto& s : scenarios) {
    char eng[32], ref[32], sp[32];
    std::snprintf(eng, sizeof eng, "%.1f", kilo(s.engine.tests_per_sec()));
    std::snprintf(ref, sizeof ref, "%.1f",
                  kilo(s.reference.tests_per_sec()));
    std::snprintf(sp, sizeof sp, "%.2fx", s.speedup());
    table.add_row({s.name, with_commas(s.engine.tests),
                   with_commas(s.engine.accepts), eng, ref, sp});
  }
  std::fputs(
      table.render("harvested + seeded support populations, best of reps")
          .c_str(),
      stdout);

  const EndToEnd e2e = knockout_yeast_end_to_end(std::min(reps, 3));
  std::printf(
      "\nknockout-yeast solve (%llu modes): %.2f s total, %.2f s in the "
      "rank-test phase\n",
      static_cast<unsigned long long>(e2e.modes), e2e.seconds,
      e2e.ranktest_seconds);

  bool gate_failed = false;

  // Acceptance bound: the boundary-support population on Network I.
  if (min_speedup > 0.0) {
    for (const auto& s : scenarios) {
      if (s.name != "yeast1_boundary") continue;
      const bool ok = s.speedup() >= min_speedup;
      std::printf("\nmin-speedup gate %s: %.2fx (limit %.2fx) -> %s\n",
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
        std::printf("  %-16s (new scenario, no baseline)\n", s.name.c_str());
        continue;
      }
      const double base = speedup_node->as_double();
      const double delta_pct = (s.speedup() / base - 1.0) * 100.0;
      const bool ok = !s.gated || delta_pct >= -max_regression_pct;
      std::printf("  %-16s %.2fx vs %.2fx (%+.1f%%) -> %s\n", s.name.c_str(),
                  s.speedup(), base, delta_pct,
                  s.gated ? (ok ? "ok" : "FAIL") : "informational");
      gate_failed = gate_failed || !ok;
    }
  }

  if (!json_path.empty()) {
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("bench", obs::JsonValue("ranktest"));
    doc.set("reps", obs::JsonValue(reps));
    obs::JsonValue scenario_json = obs::JsonValue::object();
    for (const auto& s : scenarios) {
      obs::JsonValue entry = obs::JsonValue::object();
      entry.set("tests", obs::JsonValue(s.engine.tests));
      entry.set("accepts", obs::JsonValue(s.engine.accepts));
      obs::JsonValue engine = obs::JsonValue::object();
      engine.set("seconds", obs::JsonValue(s.engine.seconds));
      engine.set("tests_per_sec", obs::JsonValue(s.engine.tests_per_sec()));
      obs::JsonValue reference = obs::JsonValue::object();
      reference.set("seconds", obs::JsonValue(s.reference.seconds));
      reference.set("tests_per_sec",
                    obs::JsonValue(s.reference.tests_per_sec()));
      entry.set("engine", std::move(engine));
      entry.set("reference", std::move(reference));
      entry.set("speedup", obs::JsonValue(s.speedup()));
      entry.set("gated", obs::JsonValue(s.gated));
      scenario_json.set(s.name, std::move(entry));
    }
    doc.set("scenarios", std::move(scenario_json));
    obs::JsonValue end_to_end = obs::JsonValue::object();
    end_to_end.set("knockout_yeast_modes", obs::JsonValue(e2e.modes));
    end_to_end.set("sparse_seconds", obs::JsonValue(e2e.seconds));
    end_to_end.set("sparse_ranktest_seconds",
                   obs::JsonValue(e2e.ranktest_seconds));
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
