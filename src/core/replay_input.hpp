// Replay-side trace representation: a trace::Trace held by value, plus the
// reverse CSR of each record's dependents and the content hash. An in-memory
// trace is taken over (ReplayTrace(std::move(run.trace)) copies nothing) and
// checked with tracestore::index_trace; a trace file of either format loads
// through the one ingest (tracestore/ingest.hpp). Either way a trace that
// breaks the contract throws std::invalid_argument naming the record index
// and id.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "tracestore/ingest.hpp"

namespace sctm::tracestore {
class TraceReader;
}

namespace sctm::core {

class ReplayTrace {
 public:
  /// An empty placeholder to assign a loaded trace to: finalized() is
  /// false, and replay and the screen reject it.
  ReplayTrace() = default;

  /// Validates and indexes an in-memory trace (see the file comment); pass
  /// an rvalue to take the trace over without a copy.
  explicit ReplayTrace(trace::Trace t);

  /// Loads every chunk of `reader` in parallel through the one ingest; also
  /// throws tracestore::TraceStoreError, naming both hashes, when the
  /// records do not hash to the content hash a v2 footer stores.
  static ReplayTrace from_store(const tracestore::TraceReader& reader);

  /// True for every trace built from records (not default-constructed).
  bool finalized() const { return finalized_; }

  /// Canonical trace identity: identical to tracestore::content_hash() of
  /// the trace these records came from. Run manifests record it so a
  /// ranking is attributable to an exact trace, and it keys the tracestore
  /// catalog.
  std::uint64_t content_hash() const { return content_hash_; }

  const trace::Trace& trace() const { return trace_; }

  // -- meta ---------------------------------------------------------------
  const std::string& app() const { return trace_.app; }
  const std::string& capture_network() const {
    return trace_.capture_network;
  }
  std::int32_t nodes() const { return trace_.nodes; }
  Cycle capture_runtime() const { return trace_.capture_runtime; }
  std::uint64_t seed() const { return trace_.seed; }

  // -- per-record fields --------------------------------------------------
  std::uint32_t size() const { return static_cast<std::uint32_t>(r().size()); }
  bool empty() const { return r().empty(); }
  MsgId id(std::uint32_t i) const { return r().id[i]; }
  NodeId src(std::uint32_t i) const { return r().src[i]; }
  NodeId dst(std::uint32_t i) const { return r().dst[i]; }
  std::uint32_t size_bytes(std::uint32_t i) const { return r().size_bytes[i]; }
  noc::MsgClass cls(std::uint32_t i) const { return r().cls[i]; }
  /// Protocol type byte (fullsys::ProtoMsg value), as captured.
  std::uint8_t proto(std::uint32_t i) const { return r().proto[i]; }
  Cycle inject_time(std::uint32_t i) const { return r().inject[i]; }
  Cycle arrive_time(std::uint32_t i) const { return r().arrive[i]; }

  // -- dependencies (CSR of parent record indices) ------------------------
  std::uint32_t dep_count(std::uint32_t i) const { return r().dep_count(i); }
  /// Record index of record i's k-th dependency.
  std::uint32_t dep_parent_index(std::uint32_t i, std::uint32_t k) const {
    return r().parent[r().dep_offset[i] + k];
  }
  /// Slack of the dependency of record `child` on record `parent`: the
  /// cycles from the parent's captured arrival to the child's captured
  /// injection.
  Cycle slack(std::uint32_t child, std::uint32_t parent) const {
    return r().slack(child, parent);
  }

  // -- reverse edges (who depends on record i) ----------------------------
  /// Record i's dependents are child(e) for e in [edge_begin(i),
  /// edge_end(i)), ascending; a record naming i k times appears k times.
  std::uint32_t edge_begin(std::uint32_t i) const {
    return children_.offset[i];
  }
  std::uint32_t edge_end(std::uint32_t i) const {
    return children_.offset[i + 1];
  }
  std::uint32_t child(std::uint32_t e) const { return children_.child[e]; }
  std::uint32_t edge_count() const { return children_.offset.back(); }

  /// Calls fn(i, k, e) for record i's k-th dependency and its edge e in the
  /// children CSR, records ascending and each record's dependencies in
  /// order — the order that fills the CSR.
  template <typename Fn>
  void for_each_dep_edge(Fn&& fn) const {
    std::vector<std::uint32_t> next(children_.offset.begin(),
                                    children_.offset.end() - 1);
    for (std::uint32_t i = 0; i < size(); ++i) {
      for (std::uint32_t k = 0; k < dep_count(i); ++k) {
        fn(i, k, next[dep_parent_index(i, k)]++);
      }
    }
  }

 private:
  const trace::Records& r() const { return trace_.records; }

  trace::Trace trace_;
  tracestore::Children children_;
  std::uint64_t content_hash_ = 0;
  bool finalized_ = false;
};

}  // namespace sctm::core
