// Self-tests of the benchmark's own machinery (perfbench_driver --selftest):
//
//  * the generator is deterministic per seed, and seeds differ;
//  * metabolite permutations leave every nullspace count unchanged;
//  * the oracle accepts the true answers and rejects corrupted ones: a
//    dropped mode, a flipped sign, a wrong surviving count, a missing cut
//    set, a non-optimal yield, a wrong screen entry, a wrong decomposition.
#include <cstdio>
#include <string>

#include "analysis/decompose.hpp"
#include "analysis/knockout.hpp"
#include "analysis/yield.hpp"
#include "bigint/checked.hpp"
#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "compress/compression.hpp"
#include "generator.hpp"
#include "network/parser.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "oracle.hpp"
#include "pipeline.hpp"

namespace perfbench {

using namespace elmo;

namespace {

int g_checks = 0;
int g_failures = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
}

void expect_rejects(const std::string& error, const std::string& what) {
  expect(!error.empty(), "oracle accepted " + what);
  if (!error.empty()) std::printf("  rejects %s: %s\n", what.c_str(), error.c_str());
}

void test_generator() {
  const auto a = network_text(solve_knockouts(), 7);
  expect(a == network_text(solve_knockouts(), 7), "same seed, same network text");
  const auto b = network_text(solve_knockouts(), 8);
  expect(a != b, "different seeds, different network text");
  const Network na = parse_network(a);
  const Network nb = parse_network(b);
  bool same_reactions = na.num_reactions() == nb.num_reactions();
  for (std::size_t r = 0; same_reactions && r < na.num_reactions(); ++r)
    same_reactions = na.reaction(r).name == nb.reaction(r).name;
  expect(same_reactions, "seeds keep the reaction order");
  bool metabolites_moved = false;
  for (std::size_t m = 0; m < na.num_metabolites() && m < nb.num_metabolites(); ++m)
    metabolites_moved = metabolites_moved ||
                        na.metabolite(m).name != nb.metabolite(m).name;
  expect(metabolites_moved, "seeds permute the metabolite order");
  for (const auto& name : solve_knockouts())
    expect(!na.find_reaction(name), "knockout " + name + " removed");

  std::vector<std::string> names;
  for (const auto& r : na.reactions()) names.push_back(r.name);
  const auto s1 = query_stream(names, 24339, 1000, 7);
  const auto s2 = query_stream(names, 24339, 1000, 7);
  bool same = s1.size() == s2.size();
  for (std::size_t i = 0; same && i < s1.size(); ++i)
    same = s1[i].kind == s2[i].kind && s1[i].reactions == s2[i].reactions &&
           s1[i].mode_indices == s2[i].mode_indices &&
           s1[i].weights == s2[i].weights;
  expect(same, "same seed, same query stream");
  const auto s3 = query_stream(names, 24339, 1000, 8);
  bool differs = false;
  for (std::size_t i = 0; i < s1.size(); ++i)
    differs = differs || s1[i].kind != s3[i].kind || s1[i].reactions != s3[i].reactions;
  expect(differs, "different seeds, different query streams");
  int counts[kNumQueryKinds] = {};
  for (std::size_t i = 0; i < 100; ++i) ++counts[static_cast<int>(s1[i].kind)];
  bool mix = true;
  for (int k = 0; k < kNumQueryKinds; ++k) mix = mix && counts[k] == kQueryMix[k];
  expect(mix, "each block of 100 queries holds the fixed mix");
}

template <typename Support>
SolveStats nullspace_counts(const CompressedProblem& compressed) {
  auto problem = to_problem<CheckedI64>(compressed);
  return solve_efms<CheckedI64, Support>(problem, SolverOptions{}).stats;
}

void test_permutation_invariance() {
  std::vector<SolveStats> runs;
  for (std::uint64_t seed : {1, 2, 3}) {
    const auto compressed = compress(parse_network(network_text(solve_knockouts(), seed)));
    const auto worst = compressed.num_reactions() +
                       static_cast<std::size_t>(std::count(compressed.reversible.begin(),
                                                           compressed.reversible.end(), true));
    runs.push_back(worst <= Bitset64::capacity()
                       ? nullspace_counts<Bitset64>(compressed)
                       : nullspace_counts<DynBitset>(compressed));
  }
  std::printf("  pairs_probed %llu over %zu iterations\n",
              static_cast<unsigned long long>(runs[0].total_pairs_probed),
              runs[0].iterations);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const auto& a = runs[0];
    const auto& b = runs[i];
    expect(a.iterations == b.iterations &&
               a.total_pairs_probed == b.total_pairs_probed &&
               a.total_pairs_pruned == b.total_pairs_pruned &&
               a.total_pretest_survivors == b.total_pretest_survivors &&
               a.total_rank_tests == b.total_rank_tests &&
               a.total_accepted == b.total_accepted &&
               a.total_duplicates_removed == b.total_duplicates_removed &&
               a.total_rank_warmstart_reuses == b.total_rank_warmstart_reuses &&
               a.total_rank_dense_fallbacks == b.total_rank_dense_fallbacks &&
               a.peak_columns == b.peak_columns,
           "nullspace counts equal across metabolite permutations (seed " +
               std::to_string(i + 1) + ")");
  }
}

void test_oracle() {
  const Network network = parse_network(network_text(query_knockouts(), 5));
  const auto job =
      untraced_job(compress(network), network.reversibility(), SolveConfig{});
  const Modes& modes = job.efm.modes;
  const auto& names = job.efm.reaction_names;
  expect(check_mode_set(network, modes, names, kQueryReference).empty(),
         "oracle accepts the true mode set");

  Modes dropped(modes.begin() + 1, modes.end());
  expect_rejects(check_mode_set(network, dropped, names, kQueryReference),
                 "a dropped mode");
  Modes flipped = modes;
  for (auto& value : flipped[modes.size() / 2]) {
    if (!value.is_zero()) {
      value = -value;
      break;
    }
  }
  expect_rejects(check_mode_set(network, flipped, names, kQueryReference),
                 "a flipped sign");
  Modes unbalanced = modes;  // flip one reversible entry: S*e != 0
  bool done = false;
  for (auto& mode : unbalanced) {
    for (std::size_t r = 0; r < mode.size() && !done; ++r) {
      if (mode[r].is_zero() || !network.reaction(r).reversible) continue;
      mode[r] = -mode[r];
      done = true;
    }
    if (done) break;
  }
  expect_rejects(check_mode_set(network, unbalanced, names, kQueryReference),
                 "a flipped sign on a reversible reaction");
  Modes swapped = modes;  // same count, one mode replaced by a duplicate
  swapped[0] = swapped[1];
  expect_rejects(check_mode_set(network, swapped, names, kQueryReference),
                 "a replaced mode");

  const QueryOracle oracle(network, modes);
  const std::vector<ReactionId> knocked = {network.reaction_id("R62"),
                                           network.reaction_id("R70")};
  const auto survivors = surviving_modes(modes, knocked);
  expect(oracle.check_surviving(knocked, survivors.size(), index_digest(survivors)).empty(),
         "oracle accepts the true surviving set");
  expect_rejects(oracle.check_surviving(knocked, survivors.size() + 1,
                                        index_digest(survivors)),
                 "a wrong surviving count");

  const ReactionId target = network.reaction_id("R66");
  auto cuts = minimal_cut_sets_2(modes, target, network.num_reactions());
  expect(oracle.check_cut_sets(target, cuts).empty(), "oracle accepts the true cut sets");
  if (!cuts.empty()) {
    cuts.pop_back();
    expect_rejects(oracle.check_cut_sets(target, cuts), "a missing cut set");
  }

  const ReactionId substrate = network.reaction_id(yield_substrate());
  auto best = optimal_yield(modes, substrate, target);
  expect(oracle.check_yield(substrate, target, best).empty(),
         "oracle accepts the optimal yield");
  if (best) {
    auto all = mode_yields(modes, substrate, target);
    for (const auto& y : all) {
      if (y.yield < best->yield) {
        expect_rejects(oracle.check_yield(substrate, target, y),
                       "a non-optimal yield");
        break;
      }
    }
  }

  auto screen = knockout_screen(network, modes, target);
  expect(oracle.check_screen(target, screen).empty(), "oracle accepts the true screen");
  screen.effects[3].surviving += 1;
  expect_rejects(oracle.check_screen(target, screen), "a wrong screen entry");

  std::vector<BigInt> flux(modes[0].size());
  for (std::size_t r = 0; r < flux.size(); ++r)
    flux[r] = modes[10][r] * BigInt(2) + modes[200][r];
  DecomposeOptions options;
  options.max_terms = 4;
  auto decomposition = decompose_flux(flux, modes, network.reversibility(), options);
  expect(oracle.check_decomposition(flux, decomposition).empty(),
         "oracle accepts the true decomposition");
  if (!decomposition.terms.empty()) {
    decomposition.terms[0].weight += BigRational(BigInt(1));
    expect_rejects(oracle.check_decomposition(flux, decomposition),
                   "a wrong decomposition weight");
  }
}

}  // namespace

int run_selftests() {
  std::printf("selftest: generator\n");
  test_generator();
  std::printf("selftest: metabolite permutations\n");
  test_permutation_invariance();
  std::printf("selftest: oracle\n");
  test_oracle();
  std::printf("selftest: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
