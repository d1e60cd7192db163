// Multi-word support set for networks with more than 64 reactions.
//
// Same interface as Bitset64 so the Nullspace Algorithm kernel can be
// instantiated with either; genome-scale networks (BiGG models can exceed
// 3000 reactions) require this representation.
//
// Storage: up to kInlineWords words (192 reactions, which covers the
// paper's yeast networks) live inside the object, so building, moving and
// comparing the candidate supports of those networks never touches the
// heap.  Wider sets own one heap block.  Moves are the defaulted
// member-wise moves; a moved-from set may only be destroyed or assigned.
//
// All instances participating in one computation must be constructed with
// the same bit capacity; binary operations check this in debug builds.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <memory>
#include <span>

#include "support/assert.hpp"

namespace elmo {

class DynBitset {
 public:
  static constexpr std::size_t kInlineWords = 3;

  DynBitset() = default;
  explicit DynBitset(std::size_t bit_capacity)
      : size_(static_cast<std::uint32_t>((bit_capacity + 63) / 64)) {
    if (size_ > kInlineWords)
      heap_ = std::make_unique<std::uint64_t[]>(size_);  // zeroed
  }

  DynBitset(const DynBitset& other)
      : inline_(other.inline_), size_(other.size_) {
    if (other.heap_) {
      heap_ = std::make_unique_for_overwrite<std::uint64_t[]>(size_);
      std::copy_n(other.heap_.get(), size_, heap_.get());
    }
  }
  DynBitset& operator=(const DynBitset& other) {
    if (this != &other) *this = DynBitset(other);
    return *this;
  }
  DynBitset(DynBitset&&) noexcept = default;
  DynBitset& operator=(DynBitset&&) noexcept = default;

  [[nodiscard]] std::size_t capacity() const { return size_ * 64; }

  void set(std::size_t i) {
    ELMO_DCHECK(i < capacity(), "DynBitset index out of range");
    data()[i >> 6] |= 1ULL << (i & 63);
  }
  void reset(std::size_t i) {
    ELMO_DCHECK(i < capacity(), "DynBitset index out of range");
    data()[i >> 6] &= ~(1ULL << (i & 63));
  }
  [[nodiscard]] bool test(std::size_t i) const {
    ELMO_DCHECK(i < capacity(), "DynBitset index out of range");
    return (data()[i >> 6] >> (i & 63)) & 1ULL;
  }
  void clear() { std::fill_n(data(), size_, std::uint64_t{0}); }

  [[nodiscard]] std::size_t count() const {
    std::size_t total = 0;
    for (auto word : words())
      total += static_cast<std::size_t>(std::popcount(word));
    return total;
  }
  [[nodiscard]] bool empty() const {
    return std::ranges::all_of(words(), [](auto word) { return word == 0; });
  }

  [[nodiscard]] bool is_subset_of(const DynBitset& other) const {
    ELMO_DCHECK(size_ == other.size_, "DynBitset capacity mismatch");
    const std::uint64_t* rhs = other.data();
    for (std::size_t i = 0; auto word : words())
      if (word & ~rhs[i++]) return false;
    return true;
  }

  DynBitset& operator|=(const DynBitset& rhs) {
    ELMO_DCHECK(size_ == rhs.size_, "DynBitset capacity mismatch");
    std::uint64_t* lhs = data();
    for (std::size_t i = 0; auto word : rhs.words()) lhs[i++] |= word;
    return *this;
  }
  DynBitset& operator&=(const DynBitset& rhs) {
    ELMO_DCHECK(size_ == rhs.size_, "DynBitset capacity mismatch");
    std::uint64_t* lhs = data();
    for (std::size_t i = 0; auto word : rhs.words()) lhs[i++] &= word;
    return *this;
  }
  friend DynBitset operator|(DynBitset a, const DynBitset& b) {
    return a |= b;
  }
  friend DynBitset operator&(DynBitset a, const DynBitset& b) {
    return a &= b;
  }

  friend bool operator==(const DynBitset& a, const DynBitset& b) {
    return std::ranges::equal(a.words(), b.words());
  }
  friend std::strong_ordering operator<=>(const DynBitset& a,
                                          const DynBitset& b) {
    // Most-significant word first so the ordering matches Bitset64's
    // numeric ordering on the low 64 bits when capacities are equal.
    const std::uint64_t* wa = a.data();
    const std::uint64_t* wb = b.data();
    for (std::size_t i = a.size_; i-- > 0;) {
      if (auto cmp = wa[i] <=> wb[i]; cmp != 0) return cmp;
    }
    return std::strong_ordering::equal;
  }

  /// Append the indices of set bits, in increasing order.
  template <typename IndexVector>
  void append_indices(IndexVector& out) const {
    const std::uint64_t* words = data();
    for (std::size_t w = 0; w < size_; ++w) {
      std::uint64_t rest = words[w];
      while (rest) {
        out.push_back(static_cast<typename IndexVector::value_type>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(rest))));
        rest &= rest - 1;
      }
    }
  }

  /// Heap bytes owned (none while the set fits inline).
  [[nodiscard]] std::size_t storage_bytes() const {
    return heap_ ? size_ * sizeof(std::uint64_t) : 0;
  }

  /// Raw word view, least-significant word first (engine tables and
  /// message-passing serialisation).
  [[nodiscard]] std::span<const std::uint64_t> words() const {
    return {data(), size_};
  }
  static DynBitset from_words(std::span<const std::uint64_t> words) {
    DynBitset out(words.size() * 64);
    std::ranges::copy(words, out.data());
    return out;
  }

 private:
  // Selecting on the pointer alone (not on size_) keeps test() as cheap
  // as an indexed vector load.
  [[nodiscard]] std::uint64_t* data() {
    return heap_ ? heap_.get() : inline_.data();
  }
  [[nodiscard]] const std::uint64_t* data() const {
    return heap_ ? heap_.get() : inline_.data();
  }

  std::array<std::uint64_t, kInlineWords> inline_{};
  std::unique_ptr<std::uint64_t[]> heap_;  // set iff size_ > kInlineWords
  std::uint32_t size_ = 0;                 // words
};

static_assert(sizeof(DynBitset) == 40,
              "DynBitset: three inline words, one heap pointer, one count");

}  // namespace elmo
