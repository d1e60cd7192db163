// Yield analysis over elementary flux modes.
//
// EFM sets characterise "cellular metabolic capabilities" (paper §I, refs
// [1]-[2]): for a substrate-uptake reaction and a product-formation
// reaction, every mode has a well-defined molar yield product/substrate,
// and the maximum over modes is the network's theoretical optimum — the
// quantity strain-design studies (Trinh & Srienc's ethanol work, ref [5])
// optimise for.
#pragma once

#include <optional>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/rational.hpp"
#include "network/network.hpp"

namespace elmo {

struct ModeYield {
  std::size_t mode_index;
  /// product flux / substrate flux, exact.  Only defined for modes with
  /// nonzero substrate uptake.
  BigRational yield;
};

/// Yields of all modes consuming through `substrate` (|flux| used for both
/// reactions, so orientation conventions do not matter).
std::vector<ModeYield> mode_yields(
    const std::vector<std::vector<BigInt>>& modes, ReactionId substrate,
    ReactionId product);

/// The best yield and the mode achieving it (the first such mode on ties);
/// nullopt if no mode uses the substrate.
std::optional<ModeYield> optimal_yield(
    const std::vector<std::vector<BigInt>>& modes, ReactionId substrate,
    ReactionId product);

/// Histogram support: yields bucketed into `buckets` equal bins over
/// [0, max]; returns per-bin counts.  Used by the yield-spectrum example.
std::vector<std::size_t> yield_histogram(const std::vector<ModeYield>& yields,
                                         std::size_t buckets);

}  // namespace elmo
