// The one ingest of stored traces: every file reader — trace::read_binary*
// (v1, and v2 through TraceReader), TraceReader::read_all, verify_v2_file
// and core::ReplayTrace::from_store — decodes records through it into a
// trace::Trace and proves the trace contract (record.hpp) on the way. It
// resolves each stored (parent id, slack) pair to the parent's record index
// after checking the slack identity: parent arrival + slack == the record's
// injection. The slack is then dropped; Records::slack() derives it.
//
// One parallel_for runs over the source's blocks (v2 chunks; a v1 file is
// one block). Decode workers fill the columns while the check folder
// consumes the blocks in record order; on request its tail fills the
// children CSR while a hash folder folds the content hash beside it. At any
// thread timing a load throws the error a serial load meets first: the
// lowest block that fails to decode, else std::invalid_argument naming the
// record index and id of the first id or endpoint violation in record
// order, else of the first dependency violation.
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

/// Receives one block's records: fields into the columns from record `next`
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

/// A stored trace's records in blocks that decode independently, in any
/// order and on any thread. Block b holds records [first[b], first[b + 1]);
/// first.back() is the record count. Decoding yields at most dep_bound
/// dependencies in all, and block_dep_bound in any one block.
class RecordBlocks {
 public:
  virtual ~RecordBlocks() = default;
  /// Decodes block b into `sink` through `buffer`, which the ingest
  /// reserved to buffer_bytes so that no decode allocates; throws on a
  /// malformed block.
  virtual void decode(std::size_t b, std::vector<char>& buffer,
                      ColumnSink& sink) = 0;

  std::vector<std::size_t> first = {0};
  std::uint64_t dep_bound = 0;
  std::size_t block_dep_bound = 0;
  std::size_t buffer_bytes = 0;
};

/// Decodes every block into `t.records` (the meta must be set already) and
/// proves the trace contract (see the file comment). With `children`, also
/// fills the children CSR; with `hash`, also stores tracestore's content
/// hash of `t` there.
void ingest(RecordBlocks& blocks, trace::Trace& t, Children* children,
            std::uint64_t* hash);

/// Proves the contract of an in-memory trace, throwing as ingest() does (the
/// columns agree in length, ids and endpoints as ingest() checks them, and
/// every parent is an earlier record), then fills `children` and stores the
/// content hash in `hash` on two threads.
void index_trace(const trace::Trace& t, Children& children,
                 std::uint64_t& hash);

}  // namespace sctm::tracestore
