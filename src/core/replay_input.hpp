// Replay-side trace representation: seven per-record arrays plus two CSRs
// over the same dependency edges (each record's parents as record indices;
// each record's dependents), built from an in-memory trace::Trace or
// streamed chunk-at-a-time out of a v2 container (src/tracestore). Peak
// memory is the arrays plus one decoded chunk, however the trace arrived.
//
// finalize() is the one validator of the trace contract that makes
// self-correcting replay exact: ids strictly increase in record order,
// every endpoint lies in [0, nodes), every dependency names an earlier
// record, and parent arrival + slack reproduces the captured injection. A
// violation throws std::invalid_argument naming the record index and id.
// The last identity makes slack derived data: finalize() drops the recorded
// dependencies, and slack() recomputes it from the captured times.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace sctm::tracestore {
class TraceReader;
}

namespace sctm::core {

class ReplayTrace {
 public:
  ReplayTrace() = default;

  /// One-shot construction from an in-memory trace (meta + every record +
  /// finalize()).
  explicit ReplayTrace(const trace::Trace& t);

  /// Streams every chunk of `reader` through append(); a background thread
  /// decodes the next chunk while this one is ingested.
  static ReplayTrace from_store(const tracestore::TraceReader& reader);

  // -- streaming builder --------------------------------------------------
  void set_meta(std::string app, std::string capture_network,
                std::int32_t nodes, Cycle capture_runtime,
                std::uint64_t seed);
  void reserve(std::uint64_t records);
  void append(const trace::TraceRecord& r);
  /// Validates (see the file comment) and builds the dependency CSRs;
  /// append() is invalid after.
  void finalize();
  bool finalized() const { return finalized_; }

  /// Canonical trace identity: identical to tracestore::content_hash() of
  /// the trace these records came from, folded incrementally as set_meta()
  /// and append() stream by (so the streaming path never materializes a
  /// trace::Trace just to hash it). Run manifests record it so a ranking is
  /// attributable to an exact trace, and it keys the tracestore catalog.
  std::uint64_t content_hash() const { return hash_state_; }

  // -- meta ---------------------------------------------------------------
  const std::string& app() const { return app_; }
  const std::string& capture_network() const { return capture_network_; }
  std::int32_t nodes() const { return nodes_; }
  Cycle capture_runtime() const { return capture_runtime_; }
  std::uint64_t seed() const { return seed_; }

  // -- per-record fields --------------------------------------------------
  std::uint32_t size() const { return static_cast<std::uint32_t>(id_.size()); }
  bool empty() const { return id_.empty(); }
  MsgId id(std::uint32_t i) const { return id_[i]; }
  NodeId src(std::uint32_t i) const { return src_[i]; }
  NodeId dst(std::uint32_t i) const { return dst_[i]; }
  std::uint32_t size_bytes(std::uint32_t i) const { return size_bytes_[i]; }
  noc::MsgClass cls(std::uint32_t i) const { return cls_[i]; }
  Cycle inject_time(std::uint32_t i) const { return inject_[i]; }
  Cycle arrive_time(std::uint32_t i) const { return arrive_[i]; }

  // -- dependencies (CSR of parent record indices) ------------------------
  std::uint32_t dep_count(std::uint32_t i) const {
    return dep_offset_[i + 1] - dep_offset_[i];
  }
  /// Record index of record i's k-th dependency (resolved in finalize()).
  std::uint32_t dep_parent_index(std::uint32_t i, std::uint32_t k) const {
    return dep_parent_idx_[dep_offset_[i] + k];
  }
  /// Slack of the dependency of record `child` on record `parent`: the
  /// cycles from the parent's captured arrival to the child's captured
  /// injection, which finalize() proved equal to the recorded slack.
  Cycle slack(std::uint32_t child, std::uint32_t parent) const {
    return inject_[child] - arrive_[parent];
  }

  // -- reverse edges (who depends on record i) ----------------------------
  /// Record i's dependents are child(e) for e in [edge_begin(i),
  /// edge_end(i)), ascending; a record naming i k times appears k times.
  std::uint32_t edge_begin(std::uint32_t i) const { return child_offset_[i]; }
  std::uint32_t edge_end(std::uint32_t i) const {
    return child_offset_[i + 1];
  }
  std::uint32_t child(std::uint32_t e) const { return children_[e]; }
  std::uint32_t edge_count() const { return child_offset_.back(); }

  /// Calls fn(i, k, e) for record i's k-th dependency and its edge e in the
  /// children CSR, records ascending and each record's dependencies in
  /// order — the order that fills the CSR.
  template <typename Fn>
  void for_each_dep_edge(Fn&& fn) const {
    std::vector<std::uint32_t> next(child_offset_.begin(),
                                    child_offset_.end() - 1);
    for (std::uint32_t i = 0; i < size(); ++i) {
      for (std::uint32_t k = 0; k < dep_count(i); ++k) {
        fn(i, k, next[dep_parent_index(i, k)]++);
      }
    }
  }

 private:
  std::string app_;
  std::string capture_network_;
  std::int32_t nodes_ = 0;
  Cycle capture_runtime_ = 0;
  std::uint64_t seed_ = 0;

  std::vector<MsgId> id_;
  std::vector<NodeId> src_;
  std::vector<NodeId> dst_;
  std::vector<std::uint32_t> size_bytes_;
  std::vector<noc::MsgClass> cls_;
  std::vector<Cycle> inject_;
  std::vector<Cycle> arrive_;

  std::vector<std::uint32_t> dep_offset_;  // size()+1 after finalize
  std::vector<trace::TraceDep> deps_;  // as recorded; emptied by finalize
  std::vector<std::uint32_t> dep_parent_idx_;

  std::vector<std::uint32_t> child_offset_;  // size()+1 after finalize
  std::vector<std::uint32_t> children_;

  /// FNV-1a/64 state (offset basis before any update), advanced by
  /// set_meta()/append() through the tracestore canonical-hash helpers.
  std::uint64_t hash_state_ = 0xcbf29ce484222325ull;

  bool finalized_ = false;
};

}  // namespace sctm::core
