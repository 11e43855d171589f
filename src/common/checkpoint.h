// Binary checkpoint primitives for the closed-loop daemon (DESIGN.md
// section 13).
//
// A checkpoint is a flat byte payload assembled by checkpoint_writer and
// consumed by checkpoint_reader: fixed-width little-endian integers and
// bit_cast doubles, so a payload restores FP state bit for bit. The file
// container adds a header — magic, format version, a caller-supplied
// config hash, payload size and an FNV-1a checksum — so the loader rejects
// foreign files, version skew, checkpoints from a differently-configured
// daemon, and truncated or corrupted payloads, all through ecrs::check_error
// (never by silently resuming from garbage).
//
// Components expose `save(checkpoint_writer&)` / `load(checkpoint_reader&)`
// pairs; the daemon concatenates them in a fixed order. Checkpoints are
// only valid at round boundaries, where every transient (ingest
// accumulators, spillover pools) is provably empty — the contract that
// keeps the format small and the restore bit-identical.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.h"

namespace ecrs {

// The format is little-endian; the writer and reader copy native words.
static_assert(std::endian::native == std::endian::little,
              "the checkpoint format is little-endian");

// Format identity of the checkpoint container ("ECRSCKPT" little-endian)
// and the current payload layout version. Bump the version whenever a
// component's save() byte layout changes.
inline constexpr std::uint64_t kCheckpointMagic = 0x54504b4353524345ULL;
inline constexpr std::uint32_t kCheckpointVersion = 1;

// FNV-1a 64-bit over raw bytes (payload checksum).
// ECRS_NO_SANITIZE_INTEGER: the multiply wraps mod 2^64 by design.
ECRS_NO_SANITIZE_INTEGER [[nodiscard]] std::uint64_t fnv1a64(
    std::span<const std::uint8_t> bytes);

// Append-only typed byte sink: one memcpy of each value's fixed-width
// native (so little-endian) representation; doubles keep their bit
// pattern. clear() keeps the buffer, so a reused writer stops allocating
// after its first payload.
class checkpoint_writer {
 public:
  void u8(std::uint8_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  void f64(double v) { put(v); }
  void size(std::size_t v) { put(static_cast<std::uint64_t>(v)); }

  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    return {buf_.get(), size_};
  }
  [[nodiscard]] std::size_t bytes_written() const { return size_; }
  void clear() { size_ = 0; }

 private:
  template <class T>
  void put(T v) {
    if (capacity_ - size_ < sizeof(T)) grow();
    std::memcpy(buf_.get() + size_, &v, sizeof(T));
    size_ += sizeof(T);
  }
  // Doubles the buffer (64 bytes at first), uninitialized: capacity and
  // touched pages match what a byte-wise push_back would have reached.
  void grow();

  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;  // bytes written
};

// Typed cursor over a payload. Every read checks the remaining length and
// raises ecrs::check_error on overrun, so a malformed payload can never
// read past its buffer.
class checkpoint_reader {
 public:
  explicit checkpoint_reader(std::span<const std::uint8_t> payload)
      : data_(payload) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::size_t size() {
    return static_cast<std::size_t>(u64());
  }

  [[nodiscard]] std::size_t remaining() const {
    return data_.size() - pos_;
  }
  // True when the whole payload has been consumed (loaders assert this so
  // a component reading too little fails loudly instead of desyncing the
  // components behind it).
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  template <class T> [[nodiscard]] T get();

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// Write `payload` to `path` under the checkpoint header. Raises
// ecrs::check_error when the file cannot be written.
void save_checkpoint_file(const std::string& path, std::uint64_t config_hash,
                          std::span<const std::uint8_t> payload);

// Read a checkpoint container back. Verifies, in order: the file opens and
// the header is complete, the magic matches, the version matches
// kCheckpointVersion, the config hash matches `expected_config_hash`, the
// payload is exactly the declared size, and the FNV-1a checksum matches.
// Any failure raises ecrs::check_error naming the offending field.
[[nodiscard]] std::vector<std::uint8_t> load_checkpoint_file(
    const std::string& path, std::uint64_t expected_config_hash);

}  // namespace ecrs
