// Single-word support set for networks with at most 64 reactions.
//
// The reduced yeast networks in the paper have 55 and 61 reactions, so a
// support (the zero/nonzero flux pattern of a mode) fits one machine word.
// The combinatorial pre-test in the candidate-generation inner loop is then
// an OR + popcount — this is what makes probing 1e8+ candidate pairs per
// second (and the paper's 159e9 generated candidates) feasible.
#pragma once

#include <bit>
#include <compare>
#include <cstdint>
#include <span>

#include "support/assert.hpp"

namespace elmo {

class Bitset64 {
 public:
  constexpr Bitset64() = default;
  constexpr explicit Bitset64(std::uint64_t bits) : bits_(bits) {}

  /// Maximum number of usable bit positions.
  static constexpr std::size_t capacity() { return 64; }

  void set(std::size_t i) {
    ELMO_DCHECK(i < 64, "Bitset64 index out of range");
    bits_ |= 1ULL << i;
  }
  void reset(std::size_t i) {
    ELMO_DCHECK(i < 64, "Bitset64 index out of range");
    bits_ &= ~(1ULL << i);
  }
  [[nodiscard]] bool test(std::size_t i) const {
    ELMO_DCHECK(i < 64, "Bitset64 index out of range");
    return (bits_ >> i) & 1ULL;
  }
  void clear() { bits_ = 0; }

  [[nodiscard]] std::size_t count() const {
    return static_cast<std::size_t>(std::popcount(bits_));
  }
  [[nodiscard]] bool empty() const { return bits_ == 0; }
  [[nodiscard]] std::uint64_t word() const { return bits_; }

  /// True iff every set bit of *this is also set in `other`.
  [[nodiscard]] bool is_subset_of(const Bitset64& other) const {
    return (bits_ & ~other.bits_) == 0;
  }

  friend Bitset64 operator|(Bitset64 a, Bitset64 b) {
    return Bitset64(a.bits_ | b.bits_);
  }
  friend Bitset64 operator&(Bitset64 a, Bitset64 b) {
    return Bitset64(a.bits_ & b.bits_);
  }
  Bitset64& operator|=(Bitset64 rhs) {
    bits_ |= rhs.bits_;
    return *this;
  }
  Bitset64& operator&=(Bitset64 rhs) {
    bits_ &= rhs.bits_;
    return *this;
  }

  friend constexpr bool operator==(Bitset64 a, Bitset64 b) = default;
  /// Lexicographic-by-word ordering; used to sort candidates for the
  /// paper's sort-and-remove-duplicates step.
  friend constexpr std::strong_ordering operator<=>(Bitset64 a,
                                                    Bitset64 b) = default;

  /// Append the indices of set bits, in increasing order.
  template <typename IndexVector>
  void append_indices(IndexVector& out) const {
    std::uint64_t rest = bits_;
    while (rest) {
      out.push_back(static_cast<typename IndexVector::value_type>(
          std::countr_zero(rest)));
      rest &= rest - 1;
    }
  }

  /// Approximate heap usage (none; the set is inline).
  [[nodiscard]] static std::size_t storage_bytes() { return 0; }

  /// Raw word view (one word), matching DynBitset::words().
  [[nodiscard]] std::span<const std::uint64_t> words() const {
    return {&bits_, 1};
  }
  static Bitset64 from_words(std::span<const std::uint64_t> words) {
    ELMO_DCHECK(words.size() == 1, "Bitset64 holds exactly one word");
    return Bitset64(words[0]);
  }

 private:
  std::uint64_t bits_ = 0;
};

}  // namespace elmo
