// The one ingest of stored traces: TraceReader::ingest (trace_store.hpp,
// defined in ingest.cpp) is the only way a trace file's records reach
// memory. Every reader — trace::read_binary*, TraceReader::read_all,
// verify_file and core::ReplayTrace::from_store, over v1 and v2 alike —
// decodes records through it into a trace::Trace and proves the trace
// contract (record.hpp) on the way. It resolves each stored (parent id,
// slack) pair to the parent's record index after checking the slack
// identity: parent arrival + slack == the record's injection. The slack is
// then dropped; Records::slack() derives it. The identity wraps, so the
// time rules are checked apart from it, without wrap-around.
//
// One parallel_for runs over the reader's chunks (v2's indexed chunks, or
// the chunks a v1 scan found). Decode workers fill the columns while the
// check folder consumes the chunks in record order; on request its tail
// fills the children CSR while a hash folder folds the content hash beside
// it. At any thread timing a load throws the error a serial load meets
// first: a v1 file's damage (found when the reader opens it), else the
// lowest chunk that fails to decode, else std::invalid_argument naming the
// record index and id of the first id or endpoint violation in record
// order, else of the first dependency violation, else a v2 content-hash
// mismatch, else the first time violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.hpp"
#include "tracestore/chunk_codec.hpp"

namespace sctm::tracestore {

/// Reverse dependency edges: record i's dependents are child[offset[i]] ..
/// child[offset[i + 1] - 1], ascending; a record naming i k times appears k
/// times.
struct Children {
  std::vector<std::uint32_t> offset = {0};  // records + 1
  std::vector<std::uint32_t> child;
};

/// Receives one chunk's records: fields into the columns from record `next`
/// on, each record's dependency count into dep_offset[next + 1] (the check
/// folder turns the counts into offsets), and its dependencies at `deps`.
struct ColumnSink {
  trace::Records& records;
  std::size_t next;
  FileDep* deps;

  void record(const RecordFields& f) {
    records.id[next] = f.id;
    records.src[next] = f.src;
    records.dst[next] = f.dst;
    records.size_bytes[next] = f.size_bytes;
    records.cls[next] = f.cls;
    records.proto[next] = f.proto;
    records.inject[next] = f.inject_time;
    records.arrive[next] = f.arrive_time;
    records.dep_offset[next + 1] = static_cast<std::uint32_t>(f.dep_count);
    ++next;
  }
  void dep(MsgId parent, Cycle slack) { *deps++ = {parent, slack}; }
};

/// Proves the contract of an in-memory trace, throwing as the ingest does
/// (the columns agree in length, ids, endpoints and times as the ingest
/// checks them, and every parent is an earlier record), then fills
/// `children` and stores the content hash in `hash` on two threads.
void index_trace(const trace::Trace& t, Children& children,
                 std::uint64_t& hash);

}  // namespace sctm::tracestore
