#include "analysis/yield.hpp"

#include <cstdint>

#include "bigint/bigint.hpp"
#include "bigint/rational.hpp"
#include "network/network.hpp"
#include "support/assert.hpp"

namespace elmo {

std::vector<ModeYield> mode_yields(
    const std::vector<std::vector<BigInt>>& modes, ReactionId substrate,
    ReactionId product) {
  std::vector<ModeYield> yields;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    ELMO_REQUIRE(substrate < modes[m].size() && product < modes[m].size(),
                 "mode_yields: bad reaction id");
    const BigInt& s = modes[m][substrate];
    if (s.is_zero()) continue;
    ModeYield y;
    y.mode_index = m;
    y.yield = BigRational(modes[m][product].abs(), s.abs());
    yields.push_back(std::move(y));
  }
  return yields;
}

namespace {

/// |value| as an unsigned 64-bit magnitude; `value` must fit int64.
std::uint64_t magnitude(const BigInt& value) {
  const std::int64_t v = value.to_i64();
  return v < 0 ? 0 - static_cast<std::uint64_t>(v)
               : static_cast<std::uint64_t>(v);
}

/// |p| / |s| > |p_best| / |s_best|, by cross-multiplying magnitudes:
/// in 128 bits when all four fit int64, else in BigInt.
bool yield_exceeds(const BigInt& p, const BigInt& s, const BigInt& p_best,
                   const BigInt& s_best) {
  if (p.fits_i64() && s.fits_i64() && p_best.fits_i64() && s_best.fits_i64())
    return static_cast<__uint128_t>(magnitude(p)) * magnitude(s_best) >
           static_cast<__uint128_t>(magnitude(p_best)) * magnitude(s);
  return p.abs() * s_best.abs() > p_best.abs() * s.abs();
}

}  // namespace

std::optional<ModeYield> optimal_yield(
    const std::vector<std::vector<BigInt>>& modes, ReactionId substrate,
    ReactionId product) {
  // Same answer as the first maximum of mode_yields, but only the winner's
  // ratio is built as a (gcd-normalised) BigRational.
  std::size_t best = modes.size();
  for (std::size_t m = 0; m < modes.size(); ++m) {
    ELMO_REQUIRE(substrate < modes[m].size() && product < modes[m].size(),
                 "optimal_yield: bad reaction id");
    const BigInt& s = modes[m][substrate];
    if (s.is_zero()) continue;
    if (best == modes.size() ||
        yield_exceeds(modes[m][product], s, modes[best][product],
                      modes[best][substrate]))
      best = m;
  }
  if (best == modes.size()) return std::nullopt;
  return ModeYield{best, BigRational(modes[best][product].abs(),
                                     modes[best][substrate].abs())};
}

std::vector<std::size_t> yield_histogram(const std::vector<ModeYield>& yields,
                                         std::size_t buckets) {
  ELMO_REQUIRE(buckets > 0, "yield_histogram: need at least one bucket");
  std::vector<std::size_t> histogram(buckets, 0);
  if (yields.empty()) return histogram;
  double max_yield = 0;
  for (const auto& y : yields)
    max_yield = std::max(max_yield, y.yield.to_double());
  if (max_yield <= 0) {
    histogram[0] = yields.size();
    return histogram;
  }
  for (const auto& y : yields) {
    auto bin = static_cast<std::size_t>(y.yield.to_double() / max_yield *
                                        static_cast<double>(buckets));
    if (bin >= buckets) bin = buckets - 1;
    ++histogram[bin];
  }
  return histogram;
}

}  // namespace elmo
