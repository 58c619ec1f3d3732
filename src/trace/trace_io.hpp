// Trace files on the trace layer's side: the v1 writer, the format-choosing
// writer, readers of either format, and a human-readable text dump. Both
// byte layouts are in tracestore/format.hpp. The readers open every file
// through tracestore::TraceReader, which tells the formats apart by their
// magic; the write side is explicit: write_binary* always emits v1,
// write_file takes a format.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/record.hpp"
#include "tracestore/format.hpp"

namespace sctm::trace {

using tracestore::kTraceFormatNames;
using tracestore::to_string;
using tracestore::TraceFormat;

/// Always emits the v1 layout, a piece at a time. A record with more than
/// 65,535 dependencies, which v1's u16 count cannot say, throws
/// std::length_error naming it before anything is written (v2 has no such
/// limit).
void write_binary(const Trace& trace, std::ostream& out);

/// Reads the whole stream into memory and reads that through
/// tracestore::TraceReader and the one ingest (tracestore/ingest.hpp), in
/// either format. Fails loudly: any truncation, trailing garbage, or
/// implausible length/count throws std::runtime_error naming the byte
/// offset, and a trace that breaks the trace contract throws
/// std::invalid_argument naming the record — a Trace is never returned
/// partially filled.
Trace read_binary(std::istream& in);

void write_binary_file(const Trace& trace, const std::string& path);
/// read_binary() of the file at `path`, read a chunk at a time instead of
/// whole.
Trace read_binary_file(const std::string& path);

/// Writes `trace` to `path` in the requested container format.
void write_file(const Trace& trace, const std::string& path, TraceFormat f);

/// One line per record: debugging/diffing aid, not meant to be re-parsed.
/// kNoCycle timestamps print symbolically as "none", never as a raw u64.
std::string to_text(const Trace& trace);

}  // namespace sctm::trace
