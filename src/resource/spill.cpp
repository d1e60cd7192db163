#include "resource/spill.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "resource/governor.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace elmo::resource {
namespace {

constexpr char kMagic[8] = {'E', 'L', 'M', 'O', 'S', 'P', 'L', '1'};

}  // namespace

SpillFile::SpillFile(std::string directory, MemoryGovernor* governor)
    : directory_(std::move(directory)), governor_(governor) {}

SpillFile::~SpillFile() {
  if (file_.is_open()) file_.close();
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove(path_, ec);  // best effort
  }
}

void SpillFile::ensure_open() {
  if (file_.is_open()) return;
  namespace fs = std::filesystem;
  fs::path dir = directory_.empty() ? fs::temp_directory_path()
                                    : fs::path(directory_);
  std::error_code ec;
  fs::create_directories(dir, ec);
  static std::atomic<std::uint64_t> sequence{0};
  const std::uint64_t seq = sequence.fetch_add(1);
  fs::path p = dir / ("elmo-spill-" + std::to_string(::getpid()) + "-" +
                      std::to_string(seq) + ".bin");
  path_ = p.string();
  file_.open(path_, std::ios::binary | std::ios::in | std::ios::out |
                        std::ios::trunc);
  if (!file_)
    throw Error("spill: cannot create spill file at " + path_);
  file_.write(kMagic, sizeof(kMagic));
  file_.flush();
  write_offset_ = sizeof(kMagic);
}

void SpillFile::append_block(const std::vector<std::uint8_t>& body) {
  ensure_open();
  std::vector<std::uint8_t> frame;
  put_frame(frame, body);
  file_.clear();
  file_.seekp(static_cast<std::streamoff>(write_offset_));
  // lint:allow(reinterpret-cast) byte-buffer file I/O
  file_.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  file_.flush();
  if (!file_) throw Error("spill: short write to " + path_);
  write_offset_ += frame.size();
  ++block_count_;
  bytes_spilled_ += body.size();
  if (governor_ != nullptr) governor_->note_spill(body.size());
}

void SpillFile::for_each_block(
    const std::function<void(std::vector<std::uint8_t>&&)>& fn) {
  if (block_count_ == 0) return;
  file_.clear();
  file_.seekg(0);
  char magic[sizeof(kMagic)];
  file_.read(magic, sizeof(magic));
  if (!file_ || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw ParseError("spill: bad magic in " + path_);
  std::uint64_t offset = sizeof(kMagic);
  for (std::size_t i = 0; i < block_count_; ++i) {
    std::uint8_t header[8];
    // lint:allow(reinterpret-cast) byte-buffer file I/O
    file_.read(reinterpret_cast<char*>(header), sizeof(header));
    if (!file_) throw ParseError("spill: truncated frame header in " + path_);
    offset += sizeof(header);
    const std::uint8_t* cursor = header;
    // Checked against the file's length before the body is allocated.
    const std::size_t size = frame_body_size(
        get_u64(cursor, header + sizeof(header)), write_offset_ - offset);
    std::vector<std::uint8_t> body(size + 4);
    // lint:allow(reinterpret-cast) byte-buffer file I/O
    file_.read(reinterpret_cast<char*>(body.data()),
               static_cast<std::streamsize>(body.size()));
    if (!file_) throw ParseError("spill: truncated frame body in " + path_);
    offset += body.size();
    check_crc_tail(body.data(), size);
    body.resize(size);
    fn(std::move(body));
  }
}

}  // namespace elmo::resource
