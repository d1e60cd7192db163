// A column of the evolving nullspace matrix: one (candidate) flux mode.
//
// Each column stores its dense value vector over the reduced reactions plus
// a cached support bitset (the zero/nonzero pattern).  Columns are kept in
// primitive form — integer entries with gcd 1 — so that duplicate modes
// compare equal exactly.  The sign is NOT canonicalised: orientation is
// semantically meaningful while irreversible rows are still unprocessed.
//
// The column byte codec below is the body of every mpsim message and every
// spill block.
#pragma once

#include <compare>
#include <span>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/scalar.hpp"
#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "bitset/traits.hpp"
#include "linalg/scale.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace elmo {

template <typename Scalar, typename Support>
struct FluxColumn {
  Support support;
  std::vector<Scalar> values;

  FluxColumn() = default;

  /// Build from a value vector: normalise to primitive form and compute the
  /// support.  The vector length is the number of reduced reactions.
  static FluxColumn from_values(std::vector<Scalar> v) {
    FluxColumn column;
    make_primitive(v);
    column.support = make_support<Support>(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (!scalar_is_zero(v[i])) column.support.set(i);
    }
    column.values = std::move(v);
    return column;
  }

  [[nodiscard]] int sign_at(std::size_t row) const {
    return scalar_sign(values[row]);
  }

  /// Approximate heap bytes held by this column (memory accounting).
  [[nodiscard]] std::size_t storage_bytes() const {
    std::size_t bytes = values.capacity() * sizeof(Scalar);
    for (const auto& v : values) bytes += scalar_heap_bytes(v);
    bytes += support.storage_bytes();
    return bytes;
  }

  /// Ordering for sort-based duplicate removal: by support pattern first
  /// (the paper's "sort by binary representation"), then by values so the
  /// comparison is a strict weak order even for non-proportional twins.
  friend std::strong_ordering operator<=>(const FluxColumn& a,
                                          const FluxColumn& b) {
    if (auto cmp = a.support <=> b.support; cmp != 0) return cmp;
    for (std::size_t i = 0; i < a.values.size(); ++i) {
      if (auto cmp = a.values[i] <=> b.values[i]; cmp != 0) return cmp;
    }
    return std::strong_ordering::equal;
  }
  friend bool operator==(const FluxColumn& a, const FluxColumn& b) {
    return a.support == b.support && a.values == b.values;
  }
};

// ---- column codec (mpsim message bodies, spill blocks) ----
// A batch is a u64 column count, then per column its support, a u64 value
// count and the values (scalar_put).  A Bitset64 support is its one word;
// a DynBitset support is a u64 word count, then the words,
// least-significant first.  The body carries no checksum: messages add a
// CRC tail (mpsim/serialize.hpp), spill files a frame (resource/spill.hpp).

namespace detail {

inline void support_put(std::vector<std::uint8_t>& out, const Bitset64& s) {
  put_u64(out, s.word());
}
inline void support_put(std::vector<std::uint8_t>& out, const DynBitset& s) {
  put_u64(out, s.words().size());
  for (std::uint64_t w : s.words()) put_u64(out, w);
}
inline void support_get(const std::uint8_t*& cursor, const std::uint8_t* end,
                        Bitset64& s) {
  s = Bitset64(get_u64(cursor, end));
}
inline void support_get(const std::uint8_t*& cursor, const std::uint8_t* end,
                        DynBitset& s) {
  const std::uint64_t count = get_u64(cursor, end);
  if (count > kMaxSupportWords)
    throw ParseError("column codec: support wider than kMaxSupportWords");
  // Only the first `count` words are written and read.
  std::uint64_t words[kMaxSupportWords];
  for (std::uint64_t i = 0; i < count; ++i) words[i] = get_u64(cursor, end);
  s = DynBitset::from_words({words, static_cast<std::size_t>(count)});
}

}  // namespace detail

/// Append the encoding of `columns` to `out`.
template <typename Scalar, typename Support>
void put_columns(std::vector<std::uint8_t>& out,
                 const std::vector<FluxColumn<Scalar, Support>>& columns) {
  put_u64(out, columns.size());
  for (const auto& column : columns) {
    detail::support_put(out, column.support);
    put_u64(out, column.values.size());
    for (const auto& value : column.values) scalar_put(out, value);
  }
}

/// Inverse of put_columns over a whole body; appends the columns to `out`.
/// Throws ParseError on a body cut short, with trailing bytes, or with a
/// count larger than the bytes left can hold.
template <typename Scalar, typename Support>
void get_columns(std::span<const std::uint8_t> body,
                 std::vector<FluxColumn<Scalar, Support>>& out) {
  const std::uint8_t* cursor = body.data();
  const std::uint8_t* end = cursor + body.size();
  const std::uint64_t count = get_u64(cursor, end);
  // A column is at least one support word and its value count.
  out.reserve(out.size() + bounded_count(count, cursor, end, 16));
  for (std::uint64_t c = 0; c < count; ++c) {
    FluxColumn<Scalar, Support> column;
    detail::support_get(cursor, end, column.support);
    const std::uint64_t size = get_u64(cursor, end);
    column.values.reserve(bounded_count(size, cursor, end, kMinScalarBytes));
    for (std::uint64_t i = 0; i < size; ++i)
      column.values.push_back(scalar_get<Scalar>(cursor, end));
    out.push_back(std::move(column));
  }
  if (cursor != end)
    throw ParseError("column codec: trailing bytes after the last column");
}

/// Compute the combination values of `combine_columns` into `out`,
/// normalised to primitive form, reusing out's capacity.  Duplicate
/// detection compares many transient combinations against existing
/// columns; this entry point avoids materialising a FluxColumn (and its
/// support) per probe.
template <typename Scalar, typename Support>
void combine_values_into(const FluxColumn<Scalar, Support>& positive,
                         const FluxColumn<Scalar, Support>& negative,
                         std::size_t k, std::vector<Scalar>& out) {
  const Scalar a = -negative.values[k];  // > 0
  const Scalar b = positive.values[k];   // > 0
  out.assign(positive.values.size(), scalar_from_i64<Scalar>(0));
  // Only rows in either support can be nonzero.
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool in_p = positive.support.test(i);
    const bool in_n = negative.support.test(i);
    if (!in_p && !in_n) continue;
    if (in_p && in_n) {
      out[i] = a * positive.values[i] + b * negative.values[i];
    } else if (in_p) {
      out[i] = a * positive.values[i];
    } else {
      out[i] = b * negative.values[i];
    }
  }
  make_primitive(out);
}

/// Convex combination of a positive and a negative column that annihilates
/// row `k`:  w = (-v[k]) * u + (u[k]) * v, both coefficients positive.
/// Returns the primitive form.  Throws OverflowError with CheckedI64 when
/// entries exceed 64 bits (the solver retries with BigInt).
template <typename Scalar, typename Support>
FluxColumn<Scalar, Support> combine_columns(
    const FluxColumn<Scalar, Support>& positive,
    const FluxColumn<Scalar, Support>& negative, std::size_t k) {
  std::vector<Scalar> w;
  combine_values_into(positive, negative, k, w);
  return FluxColumn<Scalar, Support>::from_values(std::move(w));
}

}  // namespace elmo
