// Rescaling rational vectors to primitive integer vectors.
//
// EFM columns are rays: any positive scalar multiple represents the same
// mode.  The canonical representative used throughout elmo is the integer
// vector with gcd 1 (and a sign convention fixed by the caller).
#pragma once

#include <vector>

#include "bigint/rational.hpp"

namespace elmo {

/// Convert a rational vector to the unique primitive integer vector that is
/// a positive multiple of it: multiply by lcm(denominators), divide by
/// gcd(numerators).  The zero vector maps to the zero vector.
template <typename Int>
std::vector<Int> to_primitive_integer(const std::vector<Rational<Int>>& v) {
  const Int one = scalar_from_i64<Int>(1);
  // lcm of denominators.
  Int lcm = one;
  for (const auto& x : v) {
    if (x.is_zero()) continue;
    Int g = scalar_gcd(lcm, x.den());
    lcm = scalar_exact_div(lcm, g) * x.den();
  }
  // Scale and accumulate gcd of results.
  std::vector<Int> out;
  out.reserve(v.size());
  Int g = scalar_from_i64<Int>(0);
  for (const auto& x : v) {
    Int scaled = x.num() * scalar_exact_div(lcm, x.den());
    g = scalar_gcd(g, scaled);
    out.push_back(std::move(scaled));
  }
  if (!scalar_is_zero(g) && !(g == one)) {
    for (auto& value : out) value = scalar_exact_div(value, g);
  }
  return out;
}

/// Divide an integer vector by the gcd of its entries (no-op for zero or
/// already-primitive vectors).  Returns the gcd that was divided out.
template <typename Int>
Int make_primitive(std::vector<Int>& v) {
  Int g = scalar_from_i64<Int>(0);
  for (const auto& x : v) {
    g = scalar_gcd(g, x);
    if (g == scalar_from_i64<Int>(1)) return g;
  }
  if (scalar_is_zero(g) || g == scalar_from_i64<Int>(1)) return g;
  for (auto& x : v) x = scalar_exact_div(x, g);
  return g;
}

}  // namespace elmo
