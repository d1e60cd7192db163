#include "io/efm_writer.hpp"

#include <charconv>

#include "bigint/bigint.hpp"
#include "support/assert.hpp"

namespace elmo {

namespace {

/// Append `value` in base 10; an inline value is formatted in place.
void append_value(std::string& out, const BigInt& value) {
  if (!value.fits_i64()) {
    out += value.to_string();
    return;
  }
  char buffer[24];
  const auto end =
      std::to_chars(buffer, buffer + sizeof buffer, value.to_i64()).ptr;
  out.append(buffer, end);
}

}  // namespace

std::string efms_to_text(const std::vector<std::vector<BigInt>>& modes,
                         const std::vector<std::string>& reaction_names) {
  std::string out;
  // Every value takes at least a digit and a separator.
  out.reserve(modes.size() * reaction_names.size() * 2);
  for (std::size_t r = 0; r < reaction_names.size(); ++r) {
    out += reaction_names[r];
    for (const auto& mode : modes) {
      ELMO_REQUIRE(mode.size() == reaction_names.size(),
                   "mode dimension mismatch");
      out += '\t';
      append_value(out, mode[r]);
    }
    out += '\n';
  }
  return out;
}

std::string efms_to_csv(const std::vector<std::vector<BigInt>>& modes,
                        const std::vector<std::string>& reaction_names) {
  std::string out;
  // Every value takes at least a digit and a separator.
  out.reserve(modes.size() * reaction_names.size() * 2);
  for (std::size_t r = 0; r < reaction_names.size(); ++r) {
    if (r) out += ',';
    out += reaction_names[r];
  }
  out += '\n';
  for (const auto& mode : modes) {
    ELMO_REQUIRE(mode.size() == reaction_names.size(),
                 "mode dimension mismatch");
    for (std::size_t r = 0; r < mode.size(); ++r) {
      if (r) out += ',';
      append_value(out, mode[r]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace elmo
