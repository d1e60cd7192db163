// Out-of-core spill file: checksummed, framed byte blocks on disk.
//
// When the MemoryGovernor signals pressure, the solver serializes cold
// candidate blocks and appends them here instead of keeping them resident,
// then streams them back for the merge pass — turning a hard OOM into a
// bounded slowdown.  The file is an 8-byte magic, then one checksummed
// frame per block (support/bytes.hpp, the frame checkpoint files use):
//
//   [u64 body_size][body bytes][u32 crc32(body)]
//
// all little-endian.  Every block read back is size-checked against the
// file before it is allocated and CRC-verified; damage surfaces as
// ParseError / CorruptPayloadError rather than decoded garbage.
//
// The file is created lazily on the first append, lives in the configured
// directory (or the system temp directory), and is unlinked when the
// SpillFile is destroyed — spill data never outlives the iteration that
// produced it.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "resource/governor.hpp"

namespace elmo::resource {

class SpillFile {
 public:
  /// `directory` of "" means the system temp directory.  The file itself
  /// is created on the first append_block().
  explicit SpillFile(std::string directory = std::string(),
                     MemoryGovernor* governor = &MemoryGovernor::global());
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile();

  /// Append one framed, checksummed block and flush it to disk.  Credits
  /// the governor's spill ledger.
  void append_block(const std::vector<std::uint8_t>& body);

  /// Stream every block back in append order.  Safe to call repeatedly;
  /// verifies magic and per-block CRC, throwing ParseError /
  /// CorruptPayloadError on damage.
  void for_each_block(
      const std::function<void(std::vector<std::uint8_t>&&)>& fn);

  [[nodiscard]] std::size_t block_count() const { return block_count_; }
  [[nodiscard]] std::uint64_t bytes_spilled() const { return bytes_spilled_; }
  /// Empty until the first append creates the file.
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void ensure_open();

  std::string directory_;
  std::string path_;
  std::fstream file_;
  MemoryGovernor* governor_;
  std::size_t block_count_ = 0;
  std::uint64_t bytes_spilled_ = 0;  // body bytes, excluding framing
  std::uint64_t write_offset_ = 0;
};

}  // namespace elmo::resource
