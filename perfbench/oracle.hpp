// Correctness oracle: every answer the benchmark times is checked here.
//
// Mode sets are checked against the UNCOMPRESSED network: the count, S*e = 0
// exactly, irreversible reactions carrying non-negative flux, and an
// order-independent hash of the canonical set keyed by reaction name (so it
// is the same for every seed and for every algorithm).  Query answers are
// recomputed by direct scans written here, independent of src/analysis.
//
// Every check returns an empty string on success and a one-line reason on
// failure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/decompose.hpp"
#include "analysis/knockout.hpp"
#include "analysis/yield.hpp"
#include "bigint/bigint.hpp"
#include "network/network.hpp"

namespace perfbench {

using Modes = std::vector<std::vector<elmo::BigInt>>;

/// Expected answers of the two benchmark instances.
struct ModeSetReference {
  std::size_t count;
  std::uint64_t hash;
};
inline constexpr ModeSetReference kSolveReference = {60197,
                                                     0x1e116e61e81692b4ULL};
inline constexpr ModeSetReference kQueryReference = {24339,
                                                     0x4432434c681f1616ULL};

/// Order-independent hash of a mode set; each mode is keyed by the names of
/// the reactions carrying its nonzero entries.
std::uint64_t mode_set_hash(const Modes& modes,
                            const std::vector<std::string>& reaction_names);

/// Count, steady state, irreversibility and hash of a computed mode set.
std::string check_mode_set(const elmo::Network& network, const Modes& modes,
                           const std::vector<std::string>& reaction_names,
                           const ModeSetReference& reference);

/// Order-sensitive digest of an index list (compact record of a
/// surviving_modes answer).
std::uint64_t index_digest(const std::vector<std::size_t>& indices);

/// Direct-scan checks of the analysis answers over `modes`.
class QueryOracle {
 public:
  QueryOracle(const elmo::Network& network, const Modes& modes);

  std::string check_surviving(const std::vector<elmo::ReactionId>& knocked,
                              std::size_t count, std::uint64_t digest) const;
  std::string check_cut_sets(
      elmo::ReactionId target,
      const std::vector<std::vector<elmo::ReactionId>>& answer) const;
  std::string check_yield(elmo::ReactionId substrate, elmo::ReactionId product,
                          const std::optional<elmo::ModeYield>& answer) const;
  std::string check_screen(elmo::ReactionId target,
                           const elmo::KnockoutReport& answer) const;
  std::string check_decomposition(
      const std::vector<elmo::BigInt>& flux,
      const elmo::Decomposition& answer) const;

 private:
  /// Bit m set iff mode m carries flux through the reaction.
  using Bits = std::vector<std::uint64_t>;
  [[nodiscard]] const Bits& uses(elmo::ReactionId r) const { return uses_[r]; }

  const elmo::Network& network_;
  const Modes& modes_;
  std::vector<Bits> uses_;  // per reaction
};

}  // namespace perfbench
