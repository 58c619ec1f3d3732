// Trace files on the trace layer's side: readers of either format and a
// human-readable text dump. Both byte layouts are in tracestore/format.hpp
// and their encoders in tracestore/trace_store.hpp; this header re-exports
// its one file writer, write_file, with the format names. The readers open
// every file through tracestore::TraceReader, which tells the formats apart
// by their magic; the write side is explicit: write_file takes a format.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/record.hpp"
#include "tracestore/format.hpp"
#include "tracestore/trace_store.hpp"

namespace sctm::trace {

using tracestore::kTraceFormatNames;
using tracestore::to_string;
using tracestore::TraceFormat;
using tracestore::write_file;

/// Reads the whole stream into memory and reads that through
/// tracestore::TraceReader and the one ingest (tracestore/ingest.hpp), in
/// either format. Fails loudly: any truncation, trailing garbage, or
/// implausible length/count throws std::runtime_error naming the byte
/// offset, and a trace that breaks the trace contract throws
/// std::invalid_argument naming the record — a Trace is never returned
/// partially filled.
Trace read_binary(std::istream& in);

/// read_binary() of the file at `path`, read a chunk at a time instead of
/// whole.
Trace read_binary_file(const std::string& path);

/// One line per record: debugging/diffing aid, not meant to be re-parsed.
/// kNoCycle timestamps print symbolically as "none", never as a raw u64.
std::string to_text(const Trace& trace);

}  // namespace sctm::trace
