// On-disk primitives of the v2 trace container ("SCTMTRC2"): LEB128
// varints, zigzag mapping for signed deltas, CRC32 (IEEE 802.3, the zlib
// polynomial) for per-chunk integrity, and FNV-1a/64 for content addressing.
// All hand-rolled — the container must build with zero external
// dependencies, like every other subsystem in the repo.
//
// File layout (little-endian; varints only inside chunk payloads):
//
//   magic "SCTMTRC2" (8 bytes)
//   u32 flags (reserved, 0)
//   u32 chunk_target          max records per chunk
//   u32 app_len, app bytes
//   u32 net_len, net bytes
//   i32 nodes, u64 capture_runtime, u64 seed
//   u32 header_crc            CRC32 of every preceding byte
//   per chunk:
//     u32 crc32(payload), u32 payload_len, u32 record_count,
//     u64 first_record, u64 min_cycle, u64 max_cycle,
//     payload bytes           (delta/varint-encoded records, chunk_codec.hpp)
//   index:
//     u32 index_crc, u32 index_len,
//     per chunk: u64 file_offset, u32 payload_len, u32 record_count,
//                u64 first_record, u64 min_cycle, u64 max_cycle
//   footer (fixed 44 bytes at EOF):
//     u64 index_offset, u64 chunk_count, u64 record_count,
//     u64 content_hash, u32 footer_crc, trailer "SCTMEND2"
//
// Every byte of the file is covered by exactly one checksum (header_crc,
// a chunk crc, index_crc, or footer_crc — chunk headers are covered by
// being duplicated in the crc-protected index), so any one-byte corruption
// is detectable and attributable. See DESIGN.md §8.
#pragma once

#include <cstdint>
#include <cstddef>
#include <array>
#include <string>
#include <vector>

namespace sctm::tracestore {

inline constexpr char kMagicV2[8] = {'S', 'C', 'T', 'M', 'T', 'R', 'C', '2'};
inline constexpr char kTrailerV2[8] = {'S', 'C', 'T', 'M', 'E', 'N', 'D', '2'};

/// Default records per chunk: big enough to amortize the 36-byte chunk
/// header and give the delta coder a long run, small enough that a
/// streaming reader holds ~100 KiB of decoded records at a time.
inline constexpr std::uint32_t kDefaultChunkRecords = 4096;

/// Serialized sizes (the reader seeks by these).
inline constexpr std::size_t kChunkHeaderBytes = 4 + 4 + 4 + 8 + 8 + 8;
inline constexpr std::size_t kIndexEntryBytes = 8 + 4 + 4 + 8 + 8 + 8;
inline constexpr std::size_t kFooterBytes = 8 + 8 + 8 + 8 + 4 + 8;
/// Smallest encoded record (chunk_codec.hpp): seven varints of at least one
/// byte each, plus the class and proto bytes.
inline constexpr std::size_t kMinRecordBytes = 7 + 2;

// ---------------------------------------------------------------------------
// Varint + zigzag

/// Appends `v` as an LEB128 varint (1..10 bytes).
inline void put_varint(std::vector<char>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Maps a signed delta onto an unsigned varint-friendly value: 0,-1,1,-2 ->
/// 0,1,2,3. Deltas are computed with wrapping u64 subtraction, so the
/// round trip is exact for *any* pair of u64s (including kNoCycle).
inline std::uint64_t zigzag(std::int64_t n) {
  return (static_cast<std::uint64_t>(n) << 1) ^
         static_cast<std::uint64_t>(n >> 63);
}

inline std::int64_t unzigzag(std::uint64_t z) {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

/// Wrapping difference a - b reinterpreted as a signed delta.
inline std::int64_t wrap_delta(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::int64_t>(a - b);
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 / zlib polynomial, reflected, init/xorout 0xFFFFFFFF)

namespace detail {
consteval std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}
inline constexpr auto kCrc32Table = make_crc32_table();
}  // namespace detail

/// Incremental CRC32; crc32("123456789") == 0xCBF43926.
class Crc32 {
 public:
  void update(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = state_;
    for (std::size_t i = 0; i < len; ++i) {
      c = detail::kCrc32Table[(c ^ p[i]) & 0xff] ^ (c >> 8);
    }
    state_ = c;
  }
  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

inline std::uint32_t crc32(const void* data, std::size_t len) {
  Crc32 c;
  c.update(data, len);
  return c.value();
}

// ---------------------------------------------------------------------------
// FNV-1a/64 (content addressing)

/// Incremental FNV-1a over 64 bits; fnv("") == 0xcbf29ce484222325.
class Fnv1a64 {
 public:
  Fnv1a64() = default;
  /// Resumes hashing from a previously exported value() — incremental
  /// hashers (core::ReplayTrace) carry the raw state between updates.
  explicit Fnv1a64(std::uint64_t state) : state_(state) {}

  void update(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = state_;
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
    state_ = h;
  }
  /// Hashes the little-endian bytes of a trivially-copyable scalar.
  template <typename T>
  void update_scalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    update(&v, sizeof v);  // the repo targets little-endian hosts throughout
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// 16-hex-digit lowercase rendering of a content hash (catalog file stems).
std::string hash_hex(std::uint64_t h);

/// Inverse of hash_hex; returns false unless `s` is 1..16 hex digits.
bool parse_hash_hex(const std::string& s, std::uint64_t* out);

}  // namespace sctm::tracestore
