// On-disk primitives of the trace files: both layouts, LEB128 varints,
// zigzag mapping for signed deltas, CRC32 (IEEE 802.3, the zlib polynomial)
// for per-chunk integrity, and FNV-1a/64 for content addressing. All
// hand-rolled — the container must build with zero external dependencies,
// like every other subsystem in the repo. TraceReader (trace_store.hpp)
// reads both formats, telling them apart by the magic.
//
// v1 layout ("SCTMTRC1"; little-endian, fixed-width — frozen forever; files
// written by old builds must stay readable bit-for-bit):
//
//   magic "SCTMTRC1" (8 bytes)
//   u32 app_len, app bytes
//   u32 net_len, net bytes
//   i32 nodes, u64 capture_runtime, u64 seed, u64 record_count
//   per record:
//     u64 id, i32 src, i32 dst, u32 size, u8 cls, u8 proto,
//     u64 inject, u64 arrive, u16 dep_count, dep_count x (u64 parent,
//     u64 slack)
//
// v1 has no index or checksum; TraceReader scans its record boundaries into
// chunks when it opens the file.
//
// v2 layout ("SCTMTRC2"; little-endian, varints only inside chunk payloads):
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
// Every byte of a v2 file is covered by exactly one checksum (header_crc,
// a chunk crc, index_crc, or footer_crc — chunk headers are covered by
// being duplicated in the crc-protected index), so any one-byte corruption
// is detectable and attributable. See DESIGN.md §8.
#pragma once

#include <cstdint>
#include <cstddef>
#include <cstring>
#include <array>
#include <string>
#include <type_traits>
#include <vector>

#include "common/config.hpp"

namespace sctm::tracestore {

enum class TraceFormat {
  kV1,  // fixed-width monolith (SCTMTRC1)
  kV2,  // chunked container (SCTMTRC2)
};

/// The `--format` spellings.
inline constexpr Spelling<TraceFormat> kTraceFormatNames[] = {
    {TraceFormat::kV1, "v1"},
    {TraceFormat::kV2, "v2"},
};

inline const char* to_string(TraceFormat f) {
  return spelling_of(kTraceFormatNames, f);
}

inline constexpr char kMagicV1[8] = {'S', 'C', 'T', 'M', 'T', 'R', 'C', '1'};
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
/// Smallest encoded dependency: two varints of at least one byte each.
inline constexpr std::size_t kMinDepBytes = 2;

/// A v1 record's fixed part and a v1 dependency, in bytes.
inline constexpr std::size_t kV1RecordBytes = 8 + 4 + 4 + 4 + 1 + 1 + 8 + 8 + 2;
inline constexpr std::size_t kV1DepBytes = 8 + 8;
/// A scanned v1 chunk closes at kDefaultChunkRecords records, or before a
/// record that would take it past kV1ChunkBytes; a record larger than that
/// is a chunk of its own. A 32x32 barrier release names 1,024 parents, so
/// the byte bound is what keeps a chunk's payload and its decoded
/// dependencies near 1 MiB each.
inline constexpr std::size_t kV1ChunkBytes = std::size_t{1} << 20;

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
/// Slicing-by-8 tables: t[0] is the classic byte table, and t[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight bytes fold per step.
consteval std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}
inline constexpr auto kCrc32Tables = make_crc32_tables();
}  // namespace detail

/// Incremental CRC32; crc32("123456789") == 0xCBF43926.
class Crc32 {
 public:
  void update(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    const auto& t = detail::kCrc32Tables;
    std::uint32_t c = state_;
    for (; len >= 8; p += 8, len -= 8) {
      // The repo targets little-endian hosts throughout.
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
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

namespace detail {
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
consteval std::array<std::uint64_t, 9> make_fnv_prime_powers() {
  std::array<std::uint64_t, 9> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * kFnvPrime;
  return p;
}
inline constexpr auto kFnvPrimePowers = make_fnv_prime_powers();
}  // namespace detail

/// Incremental FNV-1a over 64 bits; fnv("") == 0xcbf29ce484222325.
class Fnv1a64 {
 public:
  Fnv1a64() = default;

  void update(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = state_;
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= detail::kFnvPrime;
    }
    state_ = h;
  }
  /// Hashes the little-endian bytes of an integral scalar, exactly as
  /// update(&v, sizeof v) does. A zero byte only multiplies the state by
  /// the prime, so the run of zero high bytes that small values end in
  /// folds into one multiply by a power of it; trace fields are mostly
  /// small, so most of a trace's bytes fold that way.
  template <typename T>
  void update_scalar(T v) {
    static_assert(std::is_integral_v<T> && sizeof(T) <= 8);
    // The repo targets little-endian hosts throughout.
    auto bits = static_cast<std::uint64_t>(
        static_cast<std::make_unsigned_t<T>>(v));
    std::uint64_t h = state_;
    std::size_t k = 0;
    for (; bits != 0; bits >>= 8, ++k) {
      h ^= bits & 0xff;
      h *= detail::kFnvPrime;
    }
    state_ = h * detail::kFnvPrimePowers[sizeof(T) - k];
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
