// Construction helpers that let the Nullspace Algorithm kernel be generic
// over the support-set representation (Bitset64 vs DynBitset).
#pragma once

#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "support/assert.hpp"

namespace elmo {

/// Build an empty support set able to hold `bits` positions.
inline Bitset64 make_support(std::size_t bits, const Bitset64*) {
  ELMO_REQUIRE(bits <= Bitset64::capacity(),
               "network too large for Bitset64 supports");
  return Bitset64{};
}
inline DynBitset make_support(std::size_t bits, const DynBitset*) {
  return DynBitset(bits);
}

template <typename Support>
Support make_support(std::size_t bits) {
  return make_support(bits, static_cast<const Support*>(nullptr));
}

/// Widest support the candidate engine accepts, in words (4,096
/// reactions): survivor supports are assembled in a stack buffer this size.
inline constexpr std::size_t kMaxSupportWords = 64;

/// Word count of `support`, the stride of the engine's flat support
/// tables; rejects supports wider than kMaxSupportWords.
template <typename Support>
std::size_t support_stride(const Support& support) {
  const std::size_t stride = support.words().size();
  ELMO_REQUIRE(stride <= kMaxSupportWords,
               "network too wide for the candidate engine (more than 4096 "
               "reactions)");
  return stride;
}

}  // namespace elmo
