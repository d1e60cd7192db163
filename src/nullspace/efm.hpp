// Final-result postprocessing: canonicalisation and set comparison.
//
// EFMs are rays: any positive multiple is the same mode, and a mode whose
// support touches only reversible reactions is the same mode as its
// negation.  Canonical form therefore is: primitive integer entries, and —
// only for fully-reversible supports — first nonzero entry positive.
// Canonical mode LISTS are sorted and duplicate-free, which makes results
// of different algorithms (serial / combinatorial parallel / combined)
// directly comparable with operator==.
#pragma once

#include <algorithm>
#include <vector>

#include "bigint/bigint.hpp"
#include "nullspace/flux_column.hpp"

namespace elmo {

/// Convert solver columns to BigInt flux vectors (reduced reaction space).
template <typename Scalar, typename Support>
std::vector<std::vector<BigInt>> columns_to_bigint(
    const std::vector<FluxColumn<Scalar, Support>>& columns) {
  std::vector<std::vector<BigInt>> out;
  out.reserve(columns.size());
  for (const auto& column : columns) {
    std::vector<BigInt> mode;
    mode.reserve(column.values.size());
    for (const auto& value : column.values)
      mode.push_back(scalar_to_bigint(value));
    out.push_back(std::move(mode));
  }
  return out;
}

/// Canonicalise one mode in place (see file comment for the convention).
inline void canonicalize_mode(std::vector<BigInt>& mode,
                              const std::vector<bool>& reversible) {
  bool fully_reversible = true;
  for (std::size_t i = 0; i < mode.size() && fully_reversible; ++i) {
    if (!mode[i].is_zero() && !reversible[i]) fully_reversible = false;
  }
  if (!fully_reversible) return;
  for (const auto& value : mode) {
    if (value.is_zero()) continue;
    if (value.sign() < 0) {
      for (auto& v : mode) v = -v;
    }
    return;
  }
}

/// Canonicalise, sort and dedup a mode list in place.
inline void canonicalize_modes(std::vector<std::vector<BigInt>>& modes,
                               const std::vector<bool>& reversible) {
  for (auto& mode : modes) canonicalize_mode(mode, reversible);
  std::sort(modes.begin(), modes.end());
  modes.erase(std::unique(modes.begin(), modes.end()), modes.end());
}

/// Bring an externally supplied mode list (e.g. the paper's Eq (7) matrix)
/// to canonical form for comparison.
inline std::vector<std::vector<BigInt>> canonical_modes_from_i64(
    const std::vector<std::vector<std::int64_t>>& raw,
    const std::vector<bool>& reversible) {
  std::vector<std::vector<BigInt>> modes;
  modes.reserve(raw.size());
  for (const auto& row : raw) {
    std::vector<BigInt> mode;
    mode.reserve(row.size());
    for (auto v : row) mode.emplace_back(v);
    modes.push_back(std::move(mode));
  }
  canonicalize_modes(modes, reversible);
  return modes;
}

}  // namespace elmo
