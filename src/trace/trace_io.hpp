// Trace serialization: the legacy v1 monolith, format dispatch to the
// chunked v2 container (src/tracestore), and a human-readable text dump.
//
// v1 binary layout (little-endian, fixed-width — frozen forever; files
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
// The v2 container ("SCTMTRC2") is chunked, delta-compressed, and
// checksummed; see tracestore/format.hpp. read_binary / read_binary_file
// accept either format transparently (they sniff the magic); the write side
// is explicit: write_binary* always emits v1, write_file takes a format.
#pragma once

#include <iosfwd>
#include <string>

#include "common/config.hpp"
#include "trace/record.hpp"

namespace sctm::trace {

enum class TraceFormat {
  kV1,  // legacy monolith (SCTMTRC1)
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

/// Always emits the legacy v1 layout. A record with more than 65,535
/// dependencies, which v1's u16 count cannot say, throws std::length_error
/// naming it before anything is written (v2 has no such limit).
void write_binary(const Trace& trace, std::ostream& out);

/// Reads either format (dispatches on the magic) through the one ingest
/// (tracestore/ingest.hpp). Fails loudly: any truncation, trailing garbage,
/// or implausible length/count throws std::runtime_error naming the byte
/// offset, and a trace that breaks the trace contract throws
/// std::invalid_argument naming the record — a Trace is never returned
/// partially filled.
Trace read_binary(std::istream& in);

void write_binary_file(const Trace& trace, const std::string& path);
Trace read_binary_file(const std::string& path);

/// Writes `trace` to `path` in the requested container format.
void write_file(const Trace& trace, const std::string& path, TraceFormat f);

/// Sniffs the on-disk format of `path`; throws std::runtime_error when the
/// file is unreadable or starts with neither magic.
TraceFormat sniff_format(const std::string& path);

/// One line per record: debugging/diffing aid, not meant to be re-parsed.
/// kNoCycle timestamps print symbolically as "none", never as a raw u64.
std::string to_text(const Trace& trace);

}  // namespace sctm::trace
