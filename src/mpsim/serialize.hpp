// Serialisation of flux columns for the simulated message-passing layer.
//
// Candidate EFMs exchanged in Communicate&Merge are encoded exactly as an
// MPI implementation would pack them; message sizes reported by the
// communicator therefore reflect real traffic volumes.  A message is the
// column codec's body (put_columns, nullspace/flux_column.hpp) followed by
// a u32 CRC-32 of that body (support/bytes.hpp).
//
// Message integrity: the CRC is verified before decoding.  A payload
// damaged in flight (or by injected corruption, fault.hpp) therefore
// surfaces as a typed CorruptPayloadError a caller can retry on, never as
// silently-decoded garbage columns.
#pragma once

#include <cstdint>
#include <vector>

#include "mpsim/communicator.hpp"
#include "nullspace/flux_column.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace elmo::mpsim {

/// Append a little-endian CRC-32 of the current contents to `payload`.
inline void append_crc32(Payload& payload) {
  put_u32(payload, crc32(payload.data(), payload.size()));
}

/// Verify the trailing CRC-32 and return the body size (payload size minus
/// the 4 checksum bytes).  Throws CorruptPayloadError on mismatch or a
/// payload too short to carry a checksum.
inline std::size_t verify_crc32(const Payload& payload) {
  if (payload.size() < 4) {
    throw CorruptPayloadError("mpsim: payload too short for CRC32 framing",
                              0, 0);
  }
  const std::size_t body = payload.size() - 4;
  check_crc_tail(payload.data(), body);
  return body;
}

/// Encode a batch of columns into one checksummed message payload.
template <typename Scalar, typename Support>
Payload encode_columns(const std::vector<FluxColumn<Scalar, Support>>& columns) {
  Payload out;
  put_columns(out, columns);
  append_crc32(out);
  return out;
}

/// Inverse of encode_columns; verifies the CRC-32 first and throws
/// CorruptPayloadError on damaged bytes.
template <typename Scalar, typename Support>
std::vector<FluxColumn<Scalar, Support>> decode_columns(
    const Payload& payload) {
  const std::size_t body = verify_crc32(payload);
  std::vector<FluxColumn<Scalar, Support>> columns;
  get_columns<Scalar, Support>({payload.data(), body}, columns);
  return columns;
}

}  // namespace elmo::mpsim
