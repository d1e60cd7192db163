// Uniform scalar operations for the templated linear-algebra and Nullspace
// Algorithm kernels.  This is the one module that knows the scalar types:
// every other module tests, converts, measures and serialises kernel
// scalars through the overloads below.
//
// Two exact scalar families are supported:
//   CheckedI64 - fast path, throws OverflowError when it cannot represent a
//                result (compute_efms then reruns the whole solve in BigInt),
//   BigInt     - always-exact fallback.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/checked.hpp"
#include "support/bytes.hpp"

namespace elmo {

// ---- is-zero ----
inline bool scalar_is_zero(const CheckedI64& x) { return x.is_zero(); }
inline bool scalar_is_zero(const BigInt& x) { return x.is_zero(); }

// ---- sign: -1 / 0 / +1 ----
inline int scalar_sign(const CheckedI64& x) { return x.sign(); }
inline int scalar_sign(const BigInt& x) { return x.sign(); }

// ---- conversions ----
inline CheckedI64 scalar_from_i64(std::int64_t v, const CheckedI64*) {
  return CheckedI64(v);
}
inline BigInt scalar_from_i64(std::int64_t v, const BigInt*) {
  return BigInt(v);
}

template <typename T>
T scalar_from_i64(std::int64_t v) {
  return scalar_from_i64(v, static_cast<const T*>(nullptr));
}

// Exact conversion from the archival BigInt form (checkpoint records,
// compression output, rational kernel bases).  The CheckedI64 overload
// throws OverflowError when the value does not fit, which rides the
// solver's BigInt fallback.
inline CheckedI64 scalar_from_bigint(const BigInt& v, const CheckedI64*) {
  return CheckedI64(v.to_i64());
}
inline BigInt scalar_from_bigint(const BigInt& v, const BigInt*) { return v; }

template <typename T>
T scalar_from_bigint(const BigInt& v) {
  return scalar_from_bigint(v, static_cast<const T*>(nullptr));
}

/// Exact widening to BigInt (result reporting, rank-test and audit
/// fallbacks, rational elimination).
inline BigInt scalar_to_bigint(const CheckedI64& x) {
  return BigInt(x.value());
}
inline BigInt scalar_to_bigint(const BigInt& x) { return x; }

inline double scalar_to_double(const CheckedI64& x) { return x.to_double(); }
inline double scalar_to_double(const BigInt& x) { return x.to_double(); }

inline std::string scalar_to_string(const CheckedI64& x) {
  return x.to_string();
}
inline std::string scalar_to_string(const BigInt& x) { return x.to_string(); }

/// Heap bytes owned by the scalar beyond its inline size (memory
/// accounting): none for CheckedI64 or an int64-range BigInt, the wide
/// form's block for a larger BigInt.
inline std::size_t scalar_heap_bytes(const CheckedI64&) { return 0; }
inline std::size_t scalar_heap_bytes(const BigInt& x) {
  return x.storage_bytes();
}

// ---- byte codec (column bodies: mpsim messages, spill blocks) ----
// CheckedI64 encodes as a little-endian i64; BigInt as BigInt::serialize.
inline void scalar_put(std::vector<std::uint8_t>& out, const CheckedI64& v) {
  put_u64(out, static_cast<std::uint64_t>(v.value()));
}
inline void scalar_put(std::vector<std::uint8_t>& out, const BigInt& v) {
  v.serialize(out);
}

/// Fewest bytes scalar_put writes for either scalar type (a BigInt's sign
/// byte and limb count), the bound for a count of encoded scalars.
inline constexpr std::size_t kMinScalarBytes = 5;

/// Inverse of scalar_put; advances `cursor`.  Throws ParseError when the
/// buffer ends before the scalar does.
inline CheckedI64 scalar_get(const std::uint8_t*& cursor,
                             const std::uint8_t* end, const CheckedI64*) {
  return CheckedI64(static_cast<std::int64_t>(get_u64(cursor, end)));
}
inline BigInt scalar_get(const std::uint8_t*& cursor, const std::uint8_t* end,
                         const BigInt*) {
  return BigInt::deserialize(cursor, end);
}

template <typename T>
T scalar_get(const std::uint8_t*& cursor, const std::uint8_t* end) {
  return scalar_get(cursor, end, static_cast<const T*>(nullptr));
}

// ---- gcd (for column normalisation) ----
inline CheckedI64 scalar_gcd(const CheckedI64& a, const CheckedI64& b) {
  return CheckedI64::gcd(a, b);
}
inline BigInt scalar_gcd(const BigInt& a, const BigInt& b) {
  return BigInt::gcd(a, b);
}

// ---- exact division (guaranteed-divisible in fraction-free elimination) --
inline CheckedI64 scalar_exact_div(const CheckedI64& a, const CheckedI64& b) {
  return a.exact_div(b);
}
inline BigInt scalar_exact_div(const BigInt& a, const BigInt& b) {
  return a.exact_div(b);
}

// ---- abs ----
inline CheckedI64 scalar_abs(const CheckedI64& x) { return x.abs(); }
inline BigInt scalar_abs(const BigInt& x) { return x.abs(); }

}  // namespace elmo
