#include "oracle.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <utility>

#include "bigint/rational.hpp"

namespace perfbench {

using elmo::BigInt;
using elmo::BigRational;
using elmo::ReactionId;

namespace {

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string where(std::size_t mode) { return " (mode " + std::to_string(mode) + ")"; }

}  // namespace

std::uint64_t mode_set_hash(const Modes& modes,
                            const std::vector<std::string>& reaction_names) {
  // Entries are keyed by reaction NAME, so the hash does not depend on the
  // order in which the network lists its reactions.
  std::vector<std::uint64_t> name_key(reaction_names.size());
  for (std::size_t r = 0; r < name_key.size(); ++r)
    name_key[r] = fnv1a(0xcbf29ce484222325ULL, reaction_names[r]);
  std::uint64_t sum = 0;
  for (const auto& mode : modes) {
    // Sum over entries: independent of entry order as well.
    std::uint64_t h = 0;
    for (std::size_t r = 0; r < mode.size() && r < name_key.size(); ++r) {
      if (mode[r].is_zero()) continue;
      const std::uint64_t value =
          mode[r].fits_i64()
              ? mix(static_cast<std::uint64_t>(mode[r].to_i64()))
              : fnv1a(0xcbf29ce484222325ULL, mode[r].to_string());
      h += mix(name_key[r] ^ value);
    }
    sum += mix(h);
  }
  return mix(sum ^ mix(modes.size()));
}

std::string check_mode_set(const elmo::Network& network, const Modes& modes,
                           const std::vector<std::string>& reaction_names,
                           const ModeSetReference& reference) {
  if (modes.size() != reference.count) {
    return "mode count " + std::to_string(modes.size()) + ", expected " +
           std::to_string(reference.count);
  }
  const std::size_t q = network.num_reactions();
  if (reaction_names.size() != q) return "reaction name list size mismatch";
  for (std::size_t r = 0; r < q; ++r)
    if (reaction_names[r] != network.reaction(r).name)
      return "reaction order differs from the network at " + reaction_names[r];

  std::vector<bool> internal(network.num_metabolites(), false);
  for (auto id : network.internal_metabolites()) internal[id] = true;
  std::vector<__int128> balance(network.num_metabolites());
  std::vector<BigInt> big_balance;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const auto& mode = modes[m];
    if (mode.size() != q) return "mode length mismatch" + where(m);
    bool nonzero = false;
    bool narrow = true;
    for (std::size_t r = 0; r < q; ++r) {
      if (mode[r].is_zero()) continue;
      nonzero = true;
      if (mode[r].sign() < 0 && !network.reaction(r).reversible)
        return "negative flux through irreversible " + reaction_names[r] +
               where(m);
      narrow = narrow && mode[r].fits_i64() && mode[r].bit_length() < 60;
    }
    if (!nonzero) return "zero vector" + where(m);
    // S * e over internal metabolites, exactly: 128-bit accumulators when
    // every entry fits in 60 bits (coefficients are below 2^16 and a
    // metabolite touches fewer than 2^40 reactions), BigInt otherwise.
    if (narrow) {
      std::fill(balance.begin(), balance.end(), 0);
      for (std::size_t r = 0; r < q; ++r) {
        if (mode[r].is_zero()) continue;
        const __int128 v = mode[r].to_i64();
        for (const auto& term : network.reaction(r).terms)
          balance[term.metabolite] += v * term.coefficient;
      }
      for (std::size_t i = 0; i < balance.size(); ++i)
        if (internal[i] && balance[i] != 0)
          return "S*e != 0 at " + network.metabolite(i).name + where(m);
    } else {
      big_balance.assign(network.num_metabolites(), BigInt());
      for (std::size_t r = 0; r < q; ++r) {
        if (mode[r].is_zero()) continue;
        for (const auto& term : network.reaction(r).terms)
          big_balance[term.metabolite] += mode[r] * BigInt(term.coefficient);
      }
      for (std::size_t i = 0; i < big_balance.size(); ++i)
        if (internal[i] && !big_balance[i].is_zero())
          return "S*e != 0 at " + network.metabolite(i).name + where(m);
    }
  }
  const auto hash = mode_set_hash(modes, reaction_names);
  if (hash != reference.hash) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "mode-set hash %016llx, expected %016llx",
                  static_cast<unsigned long long>(hash),
                  static_cast<unsigned long long>(reference.hash));
    return buf;
  }
  return "";
}

std::uint64_t index_digest(const std::vector<std::size_t>& indices) {
  std::uint64_t h = mix(indices.size());
  for (std::size_t i : indices) h = mix(h ^ i);
  return h;
}

QueryOracle::QueryOracle(const elmo::Network& network, const Modes& modes)
    : network_(network), modes_(modes) {
  const std::size_t words = (modes.size() + 63) / 64;
  uses_.assign(network.num_reactions(), Bits(words, 0));
  for (std::size_t m = 0; m < modes.size(); ++m)
    for (std::size_t r = 0; r < modes[m].size() && r < uses_.size(); ++r)
      if (!modes[m][r].is_zero()) uses_[r][m / 64] |= std::uint64_t{1} << (m % 64);
}

std::string QueryOracle::check_surviving(const std::vector<ReactionId>& knocked,
                                         std::size_t count,
                                         std::uint64_t digest) const {
  std::vector<std::size_t> expected;
  for (std::size_t m = 0; m < modes_.size(); ++m) {
    bool alive = true;
    for (ReactionId r : knocked) alive = alive && !(uses(r)[m / 64] >> (m % 64) & 1);
    if (alive) expected.push_back(m);
  }
  if (count != expected.size())
    return "surviving count " + std::to_string(count) + ", direct scan " +
           std::to_string(expected.size());
  if (digest != index_digest(expected))
    return "surviving set differs from the direct scan";
  return "";
}

std::string QueryOracle::check_cut_sets(
    ReactionId target,
    const std::vector<std::vector<ReactionId>>& answer) const {
  const Bits& producing = uses(target);
  const bool any = std::any_of(producing.begin(), producing.end(),
                               [](std::uint64_t w) { return w != 0; });
  auto covers = [&](ReactionId a, ReactionId b) {
    for (std::size_t w = 0; w < producing.size(); ++w)
      if (producing[w] & ~(uses(a)[w] | uses(b)[w])) return false;
    return true;
  };
  std::vector<std::vector<ReactionId>> expected;
  const std::size_t q = uses_.size();
  std::vector<bool> single(q, false);
  if (any) {
    for (ReactionId a = 0; a < q; ++a) {
      if (a != target && covers(a, a)) {
        single[a] = true;
        expected.push_back({a});
      }
    }
    for (ReactionId a = 0; a < q; ++a) {
      if (a == target || single[a]) continue;
      for (ReactionId b = a + 1; b < q; ++b)
        if (b != target && !single[b] && covers(a, b)) expected.push_back({a, b});
    }
  }
  if (answer != expected)
    return "cut sets: " + std::to_string(answer.size()) + " returned, " +
           std::to_string(expected.size()) + " by direct scan";
  return "";
}

std::string QueryOracle::check_yield(
    ReactionId substrate, ReactionId product,
    const std::optional<elmo::ModeYield>& answer) const {
  const bool any_uptake = std::any_of(
      modes_.begin(), modes_.end(),
      [&](const auto& mode) { return !mode[substrate].is_zero(); });
  if (!answer) return any_uptake ? "no yield returned, but a mode takes up substrate" : "";
  if (answer->mode_index >= modes_.size()) return "yield mode index out of range";
  const auto& best = modes_[answer->mode_index];
  const BigInt best_s = best[substrate].abs();
  const BigInt best_p = best[product].abs();
  if (best_s.is_zero()) return "optimal-yield mode takes up no substrate";
  if (answer->yield.num() * best_s != best_p * answer->yield.den())
    return "reported yield differs from its mode's flux ratio";
  for (std::size_t m = 0; m < modes_.size(); ++m) {
    const auto& s = modes_[m][substrate];
    if (s.is_zero()) continue;
    if (modes_[m][product].abs() * best_s > best_p * s.abs())
      return "mode " + std::to_string(m) + " beats the reported optimal yield";
  }
  return "";
}

std::string QueryOracle::check_screen(ReactionId target,
                                      const elmo::KnockoutReport& answer) const {
  auto popcount = [](const Bits& bits) {
    std::size_t n = 0;
    for (auto w : bits) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  };
  const Bits& producing = uses(target);
  const std::size_t wild_producing = popcount(producing);
  if (answer.wild_type_modes != modes_.size() ||
      answer.wild_type_producing != wild_producing)
    return "screen: wild-type counts differ from direct scan";
  if (answer.effects.size() + 1 != uses_.size())
    return "screen: one effect per non-target reaction expected";
  std::size_t k = 0;
  for (ReactionId r = 0; r < uses_.size(); ++r) {
    if (r == target) continue;
    const auto& effect = answer.effects[k++];
    std::size_t surviving = modes_.size() - popcount(uses(r));
    std::size_t surviving_producing = 0;
    for (std::size_t w = 0; w < producing.size(); ++w)
      surviving_producing +=
          static_cast<std::size_t>(std::popcount(producing[w] & ~uses(r)[w]));
    const bool essential = surviving_producing == 0 && wild_producing > 0;
    if (effect.reaction != r || effect.reaction_name != network_.reaction(r).name ||
        effect.surviving != surviving ||
        effect.surviving_producing != surviving_producing ||
        effect.essential != essential)
      return "screen: knockout of " + network_.reaction(r).name +
             " differs from direct scan";
  }
  return "";
}

std::string QueryOracle::check_decomposition(
    const std::vector<BigInt>& flux, const elmo::Decomposition& answer) const {
  if (answer.residual.size() != flux.size()) return "residual length mismatch";
  std::vector<BigRational> rebuilt = answer.residual;
  for (const auto& term : answer.terms) {
    if (term.mode_index >= modes_.size()) return "decomposition term out of range";
    const auto& mode = modes_[term.mode_index];
    if (term.weight < BigRational(BigInt(0))) {
      for (std::size_t r = 0; r < mode.size(); ++r)
        if (!mode[r].is_zero() && !network_.reaction(r).reversible)
          return "negative weight on an irreversible mode";
    }
    for (std::size_t r = 0; r < mode.size(); ++r)
      if (!mode[r].is_zero()) rebuilt[r] += term.weight * BigRational(mode[r]);
  }
  bool residual_zero = true;
  for (std::size_t r = 0; r < flux.size(); ++r) {
    if (!(rebuilt[r] == BigRational(flux[r])))
      return "terms plus residual do not rebuild the flux at " +
             network_.reaction(r).name;
    residual_zero = residual_zero && answer.residual[r].is_zero();
  }
  if (answer.exact != residual_zero) return "decomposition exact flag is wrong";
  return "";
}

}  // namespace perfbench
