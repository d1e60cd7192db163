// Tests for the analysis module: flux decomposition, knockout screening,
// minimal cut sets, and yield analysis — the EFM applications the paper's
// introduction motivates — plus differential tests of each kernel against
// its plain-scan reference on toy, ecoli and seeded random networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "analysis/decompose.hpp"
#include "analysis/knockout.hpp"
#include "analysis/yield.hpp"
#include "core/api.hpp"
#include "models/ecoli_core.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace elmo {

// The analysis kernels as they were before the sign pretest, the 128-bit
// yield comparison and the single-pass screen and cut sets, kept verbatim
// as the differential oracle for those fast paths.
namespace reference {
namespace {

/// Is `mode` (optionally negated) usable against residual `r`?
/// Requires supp(mode) ⊆ supp(r) with matching signs; returns the exact
/// maximal step alpha > 0 (the ratio at which the first residual entry
/// reaches zero), or zero if incompatible.
BigRational max_step(const std::vector<BigRational>& r,
                     const std::vector<BigInt>& mode, bool negate) {
  BigRational alpha;  // 0 = incompatible
  bool first = true;
  for (std::size_t j = 0; j < mode.size(); ++j) {
    if (mode[j].is_zero()) continue;
    BigInt e = negate ? -mode[j] : mode[j];
    const int es = e.sign();
    const int rs = r[j].sign();
    if (rs == 0 || rs != es) return BigRational();  // sign clash / overshoot
    // ratio = r_j / e_j  (> 0 since signs match).
    BigRational ratio = r[j] / BigRational(e);
    if (first || ratio < alpha) {
      alpha = ratio;
      first = false;
    }
  }
  return first ? BigRational() : alpha;
}

/// L1 mass the step removes: alpha * sum|e| (used to rank greedy picks).
double removed_mass(const BigRational& alpha,
                    const std::vector<BigInt>& mode) {
  double l1 = 0;
  for (const auto& e : mode) l1 += std::fabs(e.to_double());
  return alpha.to_double() * l1;
}

bool fully_reversible(const std::vector<BigInt>& mode,
                      const std::vector<bool>& reversible) {
  for (std::size_t j = 0; j < mode.size(); ++j)
    if (!mode[j].is_zero() && !reversible[j]) return false;
  return true;
}

Decomposition decompose_flux(const std::vector<BigRational>& flux,
                             const std::vector<std::vector<BigInt>>& modes,
                             const std::vector<bool>& reversible,
                             const DecomposeOptions& options) {
  ELMO_REQUIRE(flux.size() == reversible.size(),
               "decompose_flux: flux/reversibility dimension mismatch");
  for (const auto& mode : modes)
    ELMO_REQUIRE(mode.size() == flux.size(),
                 "decompose_flux: mode dimension mismatch");

  Decomposition out;
  out.residual = flux;
  const std::size_t max_terms =
      options.max_terms ? options.max_terms
                        : std::max<std::size_t>(modes.size(), flux.size());

  for (std::size_t step = 0; step < max_terms; ++step) {
    bool residual_zero = true;
    for (const auto& r : out.residual) residual_zero &= r.is_zero();
    if (residual_zero) break;

    // Greedy pick: the compatible (mode, orientation) absorbing the most
    // L1 flux this step.
    std::size_t best_mode = modes.size();
    bool best_negate = false;
    BigRational best_alpha;
    double best_mass = 0;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      for (bool negate : {false, true}) {
        if (negate && !fully_reversible(modes[m], reversible)) continue;
        BigRational alpha = max_step(out.residual, modes[m], negate);
        if (alpha.is_zero()) continue;
        double mass = removed_mass(alpha, modes[m]);
        if (mass > best_mass) {
          best_mass = mass;
          best_mode = m;
          best_negate = negate;
          best_alpha = alpha;
        }
      }
    }
    if (best_mode == modes.size()) break;  // no compatible mode remains

    // Absorb: residual -= alpha * (+-mode).
    for (std::size_t j = 0; j < out.residual.size(); ++j) {
      const BigInt& e = modes[best_mode][j];
      if (e.is_zero()) continue;
      BigRational delta = best_alpha * BigRational(best_negate ? -e : e);
      out.residual[j] -= delta;
    }
    out.terms.push_back(DecompositionTerm{
        best_mode, best_negate ? -best_alpha : best_alpha});
  }

  out.exact = true;
  for (const auto& r : out.residual) out.exact = out.exact && r.is_zero();
  return out;
}

KnockoutReport knockout_screen(const Network& network,
                               const std::vector<std::vector<BigInt>>& modes,
                               ReactionId target) {
  ELMO_REQUIRE(target < network.num_reactions(),
               "knockout_screen: bad target reaction");
  KnockoutReport report;
  report.wild_type_modes = modes.size();
  report.wild_type_producing = modes_using(modes, target);

  for (ReactionId r = 0; r < network.num_reactions(); ++r) {
    if (r == target) continue;
    KnockoutEffect effect;
    effect.reaction = r;
    effect.reaction_name = network.reaction(r).name;
    for (const auto& mode : modes) {
      if (!mode[r].is_zero()) continue;  // killed by the knockout
      ++effect.surviving;
      if (!mode[target].is_zero()) ++effect.surviving_producing;
    }
    effect.essential =
        effect.surviving_producing == 0 && report.wild_type_producing > 0;
    report.effects.push_back(std::move(effect));
  }
  return report;
}

std::vector<std::vector<ReactionId>> minimal_cut_sets_2(
    const std::vector<std::vector<BigInt>>& modes, ReactionId target,
    std::size_t num_reactions) {
  // Producing modes only; a cut set must intersect every one of them.
  std::vector<const std::vector<BigInt>*> producing;
  for (const auto& mode : modes) {
    ELMO_REQUIRE(target < mode.size(), "minimal_cut_sets_2: bad target");
    if (!mode[target].is_zero()) producing.push_back(&mode);
  }
  std::vector<std::vector<ReactionId>> cuts;
  if (producing.empty()) return cuts;

  auto hits_all = [&](ReactionId a, ReactionId b, bool pair) {
    for (const auto* mode : producing) {
      bool hit = !(*mode)[a].is_zero() || (pair && !(*mode)[b].is_zero());
      if (!hit) return false;
    }
    return true;
  };

  std::vector<bool> single(num_reactions, false);
  for (ReactionId a = 0; a < num_reactions; ++a) {
    if (a == target) continue;
    if (hits_all(a, a, false)) {
      single[a] = true;
      cuts.push_back({a});
    }
  }
  for (ReactionId a = 0; a < num_reactions; ++a) {
    if (a == target || single[a]) continue;
    for (ReactionId b = a + 1; b < num_reactions; ++b) {
      if (b == target || single[b]) continue;  // minimality
      if (hits_all(a, b, true)) cuts.push_back({a, b});
    }
  }
  return cuts;
}

std::optional<ModeYield> optimal_yield(
    const std::vector<std::vector<BigInt>>& modes, ReactionId substrate,
    ReactionId product) {
  auto yields = mode_yields(modes, substrate, product);
  if (yields.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t k = 1; k < yields.size(); ++k)
    if (yields[best].yield < yields[k].yield) best = k;
  return yields[best];
}

}  // namespace
}  // namespace reference

namespace {

struct ToyFixture {
  ToyFixture() : network(models::toy_network()) {
    result = compute_efms(network);
  }
  Network network;
  EfmResult result;
};

ToyFixture& toy() {
  static ToyFixture fixture;
  return fixture;
}

// ---- decomposition ----

TEST(Decompose, SingleModeIsRecoveredExactly) {
  auto& f = toy();
  // The flux IS mode 3 scaled by 5.
  std::vector<BigRational> flux;
  for (const auto& v : f.result.modes[3])
    flux.push_back(BigRational(v * BigInt(5)));
  auto decomposition =
      decompose_flux(flux, f.result.modes, f.network.reversibility());
  EXPECT_TRUE(decomposition.exact);
  ASSERT_EQ(decomposition.terms.size(), 1u);
  EXPECT_EQ(decomposition.terms[0].mode_index, 3u);
  EXPECT_EQ(decomposition.terms[0].weight, BigRational::from_i64(5));
}

TEST(Decompose, RandomConvexCombinationsAreExplainedExactly) {
  auto& f = toy();
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    // Random nonnegative integer combination of 3 modes.
    std::vector<BigRational> flux(f.result.modes[0].size());
    for (int pick = 0; pick < 3; ++pick) {
      std::size_t m = rng.below(f.result.modes.size());
      std::int64_t w = rng.range(1, 4);
      for (std::size_t j = 0; j < flux.size(); ++j)
        flux[j] += BigRational(f.result.modes[m][j] * BigInt(w));
    }
    auto decomposition =
        decompose_flux(flux, f.result.modes, f.network.reversibility());
    EXPECT_TRUE(decomposition.exact) << "trial " << trial;
    EXPECT_LE(decomposition.terms.size(), flux.size());
    // Verify the reconstruction term by term.
    std::vector<BigRational> rebuilt(flux.size());
    for (const auto& term : decomposition.terms) {
      for (std::size_t j = 0; j < flux.size(); ++j)
        rebuilt[j] += term.weight *
                      BigRational(f.result.modes[term.mode_index][j]);
    }
    EXPECT_EQ(rebuilt, flux);
  }
}

TEST(Decompose, InfeasibleFluxLeavesResidual) {
  auto& f = toy();
  // A vector violating steady state cannot be explained.
  std::vector<BigRational> flux(f.result.modes[0].size());
  flux[0] = BigRational::from_i64(1);  // r1 alone
  auto decomposition =
      decompose_flux(flux, f.result.modes, f.network.reversibility());
  EXPECT_FALSE(decomposition.exact);
  EXPECT_GT(decomposition.residual_l1(), 0.0);
}

TEST(Decompose, MaxTermsRespected) {
  auto& f = toy();
  std::vector<BigRational> flux(f.result.modes[0].size());
  for (std::size_t m = 0; m < 4; ++m)
    for (std::size_t j = 0; j < flux.size(); ++j)
      flux[j] += BigRational(f.result.modes[m][j]);
  DecomposeOptions options;
  options.max_terms = 1;
  auto decomposition =
      decompose_flux(flux, f.result.modes, f.network.reversibility(),
                     options);
  EXPECT_LE(decomposition.terms.size(), 1u);
}

// ---- knockouts ----

TEST(Knockout, SurvivingModesFilterBySupport) {
  auto& f = toy();
  ReactionId r7 = f.network.reaction_id("r7");
  auto survivors = surviving_modes(f.result.modes, {r7});
  // Eq (7): r7 is nonzero in exactly 3 of the 8 modes.
  EXPECT_EQ(survivors.size(), 5u);
  for (std::size_t m : survivors)
    EXPECT_TRUE(f.result.modes[m][r7].is_zero());
  // Knocking out nothing keeps everything.
  EXPECT_EQ(surviving_modes(f.result.modes, {}).size(), 8u);
}

TEST(Knockout, ScreenFindsEssentialReactions) {
  auto& f = toy();
  ReactionId r9 = f.network.reaction_id("r9");
  auto report = knockout_screen(f.network, f.result.modes, r9);
  EXPECT_EQ(report.wild_type_modes, 8u);
  // Modes producing Dext: those with nonzero r9 — 3 of them (Eq (7)).
  EXPECT_EQ(report.wild_type_producing, 3u);
  // Every D-producing mode runs r3 (the only D source) AND r4 (the P made
  // alongside D must leave the cell): both are essential for r9.
  auto essential = report.essential_reactions();
  ASSERT_EQ(essential.size(), 2u);
  EXPECT_EQ(essential[0], "r3");
  EXPECT_EQ(essential[1], "r4");
}

TEST(Knockout, MinimalCutSets) {
  auto& f = toy();
  ReactionId r9 = f.network.reaction_id("r9");
  auto cuts = minimal_cut_sets_2(f.result.modes, r9,
                                 f.network.num_reactions());
  // {r3} is a singleton cut; no pair containing r3 may appear (minimality).
  bool has_r3 = false;
  ReactionId r3 = f.network.reaction_id("r3");
  for (const auto& cut : cuts) {
    if (cut.size() == 1 && cut[0] == r3) has_r3 = true;
    if (cut.size() == 2) {
      EXPECT_TRUE(cut[0] != r3 && cut[1] != r3);
    }
    // Every cut actually cuts: no producing mode survives.
    auto survivors = surviving_modes(f.result.modes, cut);
    for (std::size_t m : survivors) {
      EXPECT_TRUE(f.result.modes[m][r9].is_zero());
    }
  }
  EXPECT_TRUE(has_r3);
  // {r1, r8r} must be a pair cut: every D-producing mode imports A or B.
  bool has_r1_r8 = false;
  ReactionId r1 = f.network.reaction_id("r1");
  ReactionId r8 = f.network.reaction_id("r8r");
  for (const auto& cut : cuts) {
    if (cut.size() == 2 && ((cut[0] == r1 && cut[1] == r8) ||
                            (cut[0] == r8 && cut[1] == r1)))
      has_r1_r8 = true;
  }
  EXPECT_TRUE(has_r1_r8);
}

TEST(Knockout, NoProducingModesMeansNoCuts) {
  // A fresh network copy with r3 removed has no Dext production at all.
  std::vector<std::vector<BigInt>> none;
  EXPECT_TRUE(minimal_cut_sets_2(none, 0, 9).empty());
}

// ---- yields ----

TEST(Yield, ToyPentoseYields) {
  auto& f = toy();
  ReactionId r1 = f.network.reaction_id("r1");  // Aext uptake
  ReactionId r4 = f.network.reaction_id("r4");  // Pext production
  auto yields = mode_yields(f.result.modes, r1, r4);
  // 6 of the 8 modes import A (r1 nonzero in Eq (7)).
  EXPECT_EQ(yields.size(), 6u);
  auto best = optimal_yield(f.result.modes, r1, r4);
  ASSERT_TRUE(best.has_value());
  // The best P yield per A is 2 (via r7: A -> B -> 2 P).
  EXPECT_EQ(best->yield, BigRational::from_i64(2));
}

TEST(Yield, HistogramBucketsCoverAllModes) {
  auto& f = toy();
  ReactionId r1 = f.network.reaction_id("r1");
  ReactionId r4 = f.network.reaction_id("r4");
  auto yields = mode_yields(f.result.modes, r1, r4);
  auto histogram = yield_histogram(yields, 4);
  std::size_t total = 0;
  for (auto count : histogram) total += count;
  EXPECT_EQ(total, yields.size());
  EXPECT_THROW(yield_histogram(yields, 0), InvalidArgumentError);
}

TEST(Yield, NoSubstrateUseGivesNullopt) {
  std::vector<std::vector<BigInt>> modes = {{BigInt(0), BigInt(1)}};
  EXPECT_FALSE(optimal_yield(modes, 0, 1).has_value());
}

TEST(Yield, EntriesBeyondInt64AndAtInt64Min) {
  // Modes are (substrate, product).  Entries beyond int64 take the BigInt
  // comparison; INT64_MIN has the largest magnitude the 128-bit one sees.
  const BigInt big = BigInt::from_string("123456789012345678901234567890");
  const BigInt min64(std::numeric_limits<std::int64_t>::min());
  std::vector<std::vector<BigInt>> modes = {
      {BigInt(3), BigInt(7)},        // 7/3
      {BigInt(-1), min64},           // 2^63, beats 7/3 in 128 bits
      {min64, min64},                // 1, loses in 128 bits
      {big, big * BigInt(3)},        // 3, loses in BigInt
      {min64, min64 - BigInt(1)},    // (2^63 + 1) / 2^63, loses in BigInt
      {big, BigInt(0)},              // 0
      {BigInt(1), big},              // big, wins in BigInt
      {BigInt(2), big * BigInt(2)},  // big again: a tie, loses
  };
  for (ReactionId substrate : {0u, 1u}) {
    const ReactionId product = 1 - substrate;
    auto fast = optimal_yield(modes, substrate, product);
    auto slow = reference::optimal_yield(modes, substrate, product);
    ASSERT_TRUE(fast.has_value() && slow.has_value());
    EXPECT_EQ(fast->mode_index, slow->mode_index) << "substrate " << substrate;
    EXPECT_EQ(fast->yield, slow->yield);
  }
  auto best = optimal_yield(modes, 0, 1);
  EXPECT_EQ(best->mode_index, 6u);
  EXPECT_EQ(best->yield, BigRational(big));
  modes.resize(3);
  best = optimal_yield(modes, 0, 1);
  EXPECT_EQ(best->mode_index, 1u);
  EXPECT_EQ(best->yield, BigRational(-min64));
}

TEST(Yield, EqualYieldsKeepTheFirstMode) {
  const BigInt min64(std::numeric_limits<std::int64_t>::min());
  // Every mode has yield 2 (both int64 and BigInt comparisons tie); a mode
  // without uptake comes first and must be skipped.
  std::vector<std::vector<BigInt>> modes = {
      {BigInt(0), BigInt(5)},
      {BigInt(-2), BigInt(4)},
      {BigInt(1), BigInt(2)},
      {min64, min64 * BigInt(2)},
      {BigInt(-3), BigInt(-6)},
  };
  auto best = optimal_yield(modes, 0, 1);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->mode_index, 1u);
  EXPECT_EQ(best->yield, BigRational::from_i64(2));
  EXPECT_EQ(reference::optimal_yield(modes, 0, 1)->mode_index, 1u);
}

// ---- bounds ----

TEST(Knockout, ScreenRejectsModesOfTheWrongLength) {
  auto& f = toy();
  const std::size_t n = f.network.num_reactions();
  for (std::size_t length : {n - 1, n + 1}) {
    auto modes = f.result.modes;
    modes.back().resize(length);
    EXPECT_THROW(knockout_screen(f.network, modes, 0), InvalidArgumentError)
        << "length " << length;
  }
}

TEST(Knockout, CutSetsRejectModesOfTheWrongLength) {
  auto& f = toy();
  const std::size_t n = f.network.num_reactions();
  const ReactionId r9 = f.network.reaction_id("r9");
  for (std::size_t length : {n - 1, n + 1}) {
    auto modes = f.result.modes;
    modes.back().resize(length);
    EXPECT_THROW(minimal_cut_sets_2(modes, r9, n), InvalidArgumentError)
        << "length " << length;
  }
  EXPECT_THROW(minimal_cut_sets_2(f.result.modes, n, n), InvalidArgumentError);
}

// ---- differential: every kernel against its reference ----

struct Instance {
  Network network;
  EfmResult result;
};

std::vector<std::string> instance_names() {
  std::vector<std::string> names = {"toy", "ecoli"};
  // The ReproducerGrid seeds of test_cross_algorithm.
  for (int seed : {1, 10, 11, 13, 16, 21})
    names.push_back("random" + std::to_string(seed));
  return names;
}

const Instance& instance(const std::string& name) {
  static std::map<std::string, Instance> cache;
  auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  Network network;
  if (name == "toy") {
    network = models::toy_network();
  } else if (name == "ecoli") {
    network = models::ecoli_core();
  } else {
    models::RandomNetworkSpec spec;
    spec.num_metabolites = 8;
    spec.num_extra_reactions = 8;
    spec.num_exchanges = 4;
    spec.reversible_probability = 0.4;
    spec.seed = std::stoull(name.substr(6));
    network = models::random_network(spec);
  }
  EfmResult result = compute_efms(network);
  return cache.emplace(name, Instance{std::move(network), std::move(result)})
      .first->second;
}

std::vector<ReactionId> exchange_reactions(const Network& network) {
  std::vector<ReactionId> exchanges;
  for (ReactionId r = 0; r < network.num_reactions(); ++r)
    for (const auto& term : network.reaction(r).terms)
      if (network.metabolite(term.metabolite).external) {
        exchanges.push_back(r);
        break;
      }
  return exchanges;
}

void expect_same(const Decomposition& fast, const Decomposition& slow,
                 const std::string& where) {
  ASSERT_EQ(fast.terms.size(), slow.terms.size()) << where;
  for (std::size_t t = 0; t < fast.terms.size(); ++t) {
    EXPECT_EQ(fast.terms[t].mode_index, slow.terms[t].mode_index) << where;
    EXPECT_EQ(fast.terms[t].weight, slow.terms[t].weight) << where;
  }
  EXPECT_EQ(fast.residual, slow.residual) << where;
  EXPECT_EQ(fast.exact, slow.exact) << where;
}

class AnalysisDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(AnalysisDifferential, ScreenAndCutSetsMatchForEveryTarget) {
  const Instance& in = instance(GetParam());
  const std::size_t n = in.network.num_reactions();
  for (ReactionId target = 0; target < n; ++target) {
    const auto fast = knockout_screen(in.network, in.result.modes, target);
    const auto slow =
        reference::knockout_screen(in.network, in.result.modes, target);
    EXPECT_EQ(fast.wild_type_modes, slow.wild_type_modes);
    EXPECT_EQ(fast.wild_type_producing, slow.wild_type_producing);
    ASSERT_EQ(fast.effects.size(), slow.effects.size());
    for (std::size_t k = 0; k < fast.effects.size(); ++k) {
      const auto& a = fast.effects[k];
      const auto& b = slow.effects[k];
      EXPECT_EQ(a.reaction, b.reaction);
      EXPECT_EQ(a.reaction_name, b.reaction_name);
      EXPECT_EQ(a.surviving, b.surviving);
      EXPECT_EQ(a.surviving_producing, b.surviving_producing);
      EXPECT_EQ(a.essential, b.essential);
    }
    EXPECT_EQ(minimal_cut_sets_2(in.result.modes, target, n),
              reference::minimal_cut_sets_2(in.result.modes, target, n))
        << "target " << target;
  }
}

TEST_P(AnalysisDifferential, OptimalYieldMatchesForEveryExchangePair) {
  const Instance& in = instance(GetParam());
  const auto exchanges = exchange_reactions(in.network);
  ASSERT_GE(exchanges.size(), 2u);
  for (ReactionId substrate : exchanges) {
    for (ReactionId product : exchanges) {
      if (product == substrate) continue;
      const auto fast = optimal_yield(in.result.modes, substrate, product);
      const auto slow =
          reference::optimal_yield(in.result.modes, substrate, product);
      ASSERT_EQ(fast.has_value(), slow.has_value());
      if (!fast) continue;
      EXPECT_EQ(fast->mode_index, slow->mode_index)
          << substrate << " -> " << product;
      EXPECT_EQ(fast->yield, slow->yield);
    }
  }
}

TEST_P(AnalysisDifferential, DecompositionMatches) {
  const Instance& in = instance(GetParam());
  const auto& modes = in.result.modes;
  const auto& reversible = in.network.reversibility();
  std::vector<std::size_t> flippable;  // fully reversible modes
  for (std::size_t m = 0; m < modes.size(); ++m) {
    bool all = true;
    for (std::size_t j = 0; j < modes[m].size(); ++j)
      all = all && (modes[m][j].is_zero() || reversible[j]);
    if (all) flippable.push_back(m);
  }
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    // A nonnegative rational combination of 1-4 modes; every other trial
    // adds a fully reversible mode in its mirrored orientation.
    std::vector<BigRational> flux(reversible.size());
    auto add = [&](std::size_t m, std::int64_t sign) {
      const std::int64_t num = rng.range(1, 6);
      const BigRational weight = BigRational::from_i64(sign * num,
                                                       rng.range(1, 3));
      for (std::size_t j = 0; j < flux.size(); ++j)
        flux[j] += weight * BigRational(modes[m][j]);
    };
    const auto picks = rng.range(1, 4);
    for (std::int64_t pick = 0; pick < picks; ++pick)
      add(rng.below(modes.size()), 1);
    if (trial % 2 == 1 && !flippable.empty())
      add(flippable[rng.below(flippable.size())], -1);
    for (std::size_t max_terms : {1u, 2u, 0u}) {
      DecomposeOptions options;
      options.max_terms = max_terms;
      expect_same(decompose_flux(flux, modes, reversible, options),
                  reference::decompose_flux(flux, modes, reversible, options),
                  GetParam() + " trial " + std::to_string(trial) +
                      " max_terms " + std::to_string(max_terms));
    }
    // The mirrored flux runs irreversible reactions backwards, so only
    // negated fully reversible modes may absorb any of it.
    if (trial % 4 == 0) {
      for (auto& v : flux) v = -v;
      expect_same(decompose_flux(flux, modes, reversible),
                  reference::decompose_flux(flux, modes, reversible, {}),
                  GetParam() + " mirrored trial " + std::to_string(trial));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Instances, AnalysisDifferential,
                         ::testing::ValuesIn(instance_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace elmo
