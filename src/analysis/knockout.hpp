// Knockout / essentiality analysis over elementary flux modes.
//
// Gene-knockout studies are a headline EFM application in the paper's
// introduction (§I, refs [4]-[7], Haus et al.; Trinh & Srienc).  The key
// observation making them cheap: knocking out reaction set K leaves exactly
// the EFMs whose supports avoid K — no recomputation needed once the
// wild-type EFM set is known.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "network/network.hpp"

namespace elmo {

/// EFM indices (into a caller-supplied mode list) that survive knocking
/// out the given reactions — i.e. modes with zero flux through every one.
std::vector<std::size_t> surviving_modes(
    const std::vector<std::vector<BigInt>>& modes,
    const std::vector<ReactionId>& knocked_out);

/// Count modes with nonzero flux through `reaction`.
std::size_t modes_using(const std::vector<std::vector<BigInt>>& modes,
                        ReactionId reaction);

struct KnockoutEffect {
  ReactionId reaction;
  std::string reaction_name;
  /// Modes surviving the single knockout.
  std::size_t surviving = 0;
  /// Surviving modes still producing through the target reaction.
  std::size_t surviving_producing = 0;
  /// No surviving mode produces the target: the reaction is essential.
  bool essential = false;
};

struct KnockoutReport {
  std::size_t wild_type_modes = 0;
  std::size_t wild_type_producing = 0;
  std::vector<KnockoutEffect> effects;  // one per non-target reaction

  [[nodiscard]] std::vector<std::string> essential_reactions() const;
};

/// Single-knockout screen against a target reaction: for every reaction
/// (except the target), how many modes survive its removal and how many of
/// them still carry flux through `target`.  Pure set filtering over the
/// wild-type EFM list, in one pass over it; every mode must have one entry
/// per network reaction.
KnockoutReport knockout_screen(const Network& network,
                               const std::vector<std::vector<BigInt>>& modes,
                               ReactionId target);

/// Minimal cut sets of size <= 2 for the target reaction: reaction sets
/// whose removal leaves no producing mode (and no proper subset does).
/// A small instance of the paper's ref [4] (Haus, Klamt & Stephen).  Every
/// mode must have `num_reactions` entries.
std::vector<std::vector<ReactionId>> minimal_cut_sets_2(
    const std::vector<std::vector<BigInt>>& modes, ReactionId target,
    std::size_t num_reactions);

}  // namespace elmo
