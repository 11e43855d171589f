#include "common/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/check.h"

namespace ecrs {
namespace {

// Header layout (40 bytes): magic u64, version u32, pad u32 (zero),
// config_hash u64, payload_size u64, fnv1a64(payload) u64.
constexpr std::size_t kHeaderBytes = 40;

struct file_closer {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using unique_file = std::unique_ptr<std::FILE, file_closer>;

}  // namespace

ECRS_NO_SANITIZE_INTEGER std::uint64_t fnv1a64(
    std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void checkpoint_writer::grow() {
  const std::size_t capacity = std::max<std::size_t>(64, 2 * capacity_);
  auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
  if (size_ > 0) std::memcpy(bigger.get(), buf_.get(), size_);
  buf_ = std::move(bigger);
  capacity_ = capacity;
}

template <class T>
T checkpoint_reader::get() {
  ECRS_CHECK_MSG(sizeof(T) <= data_.size() - pos_,
                 "checkpoint payload overrun");
  T v;
  std::memcpy(&v, data_.data() + pos_, sizeof(T));
  pos_ += sizeof(T);
  return v;
}

std::uint8_t checkpoint_reader::u8() { return get<std::uint8_t>(); }
std::uint32_t checkpoint_reader::u32() { return get<std::uint32_t>(); }
std::uint64_t checkpoint_reader::u64() { return get<std::uint64_t>(); }
std::int64_t checkpoint_reader::i64() { return get<std::int64_t>(); }
double checkpoint_reader::f64() { return get<double>(); }

void save_checkpoint_file(const std::string& path, std::uint64_t config_hash,
                          std::span<const std::uint8_t> payload) {
  checkpoint_writer header;
  header.u64(kCheckpointMagic);
  header.u32(kCheckpointVersion);
  header.u32(0);  // pad, keeps every field 8-byte aligned
  header.u64(config_hash);
  header.size(payload.size());
  header.u64(fnv1a64(payload));

  unique_file f(std::fopen(path.c_str(), "wb"));
  ECRS_CHECK_MSG(f != nullptr, "cannot open checkpoint file '" << path
                                                               << "' for writing");
  const std::size_t wrote_header = std::fwrite(
      header.payload().data(), 1, header.bytes_written(), f.get());
  const std::size_t wrote_payload =
      payload.empty() ? 0
                      : std::fwrite(payload.data(), 1, payload.size(), f.get());
  ECRS_CHECK_MSG(wrote_header == kHeaderBytes &&
                     wrote_payload == payload.size(),
                 "short write to checkpoint file '" << path << "'");
  ECRS_CHECK_MSG(std::fflush(f.get()) == 0,
                 "cannot flush checkpoint file '" << path << "'");
}

std::vector<std::uint8_t> load_checkpoint_file(
    const std::string& path, std::uint64_t expected_config_hash) {
  unique_file f(std::fopen(path.c_str(), "rb"));
  ECRS_CHECK_MSG(f != nullptr,
                 "cannot open checkpoint file '" << path << "'");

  std::uint8_t bytes[kHeaderBytes];
  const std::size_t got = std::fread(bytes, 1, kHeaderBytes, f.get());
  ECRS_CHECK_MSG(got == kHeaderBytes,
                 "checkpoint file '" << path << "' truncated: " << got
                                     << " header bytes of " << kHeaderBytes);

  checkpoint_reader header(bytes);
  const std::uint64_t magic = header.u64();
  ECRS_CHECK_MSG(magic == kCheckpointMagic,
                 "'" << path << "' is not an ECRS checkpoint (bad magic)");
  const std::uint32_t version = header.u32();
  static_cast<void>(header.u32());  // pad
  ECRS_CHECK_MSG(version == kCheckpointVersion,
                 "checkpoint '" << path << "' has format version " << version
                                << ", this build reads "
                                << kCheckpointVersion);
  const std::uint64_t config_hash = header.u64();
  ECRS_CHECK_MSG(config_hash == expected_config_hash,
                 "checkpoint '" << path
                                << "' was written by a daemon with a "
                                   "different configuration");
  const std::uint64_t declared = header.u64();
  const std::uint64_t checksum = header.u64();

  // Bound the declared size by the file's length before allocating, so a
  // corrupt size field fails here instead of reserving gigabytes.
  constexpr long kPayloadAt = static_cast<long>(kHeaderBytes);
  const long held = std::fseek(f.get(), 0, SEEK_END) == 0
                        ? std::ftell(f.get()) - kPayloadAt
                        : -1;
  ECRS_CHECK_MSG(held >= 0 && std::fseek(f.get(), kPayloadAt, SEEK_SET) == 0,
                 "cannot seek checkpoint '" << path << "'");
  ECRS_CHECK_MSG(static_cast<std::uint64_t>(held) >= declared,
                 "checkpoint '" << path << "' truncated: " << held
                                << " payload bytes of " << declared);
  // Trailing garbage would also mean the container is not what save wrote.
  ECRS_CHECK_MSG(static_cast<std::uint64_t>(held) == declared,
                 "checkpoint '" << path << "' carries trailing bytes");
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(declared));
  ECRS_CHECK_MSG(payload.empty() || std::fread(payload.data(), 1,
                                               payload.size(), f.get()) ==
                                        payload.size(),
                 "cannot read checkpoint '" << path << "'");
  ECRS_CHECK_MSG(fnv1a64(payload) == checksum,
                 "checkpoint '" << path << "' failed its checksum");
  return payload;
}

}  // namespace ecrs
