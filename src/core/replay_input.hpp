// Replay-side trace representation: eight per-record columns plus two CSRs
// over the same dependency edges (each record's parents as record indices;
// each record's dependents), built from an in-memory trace::Trace or
// decoded out of a v2 container (src/tracestore).
//
// Both constructions run one pipeline over blocks of records (the v2
// chunks, or 4,096-record blocks of an in-memory trace) through
// parallel_for: workers copy or decode blocks straight into the columns,
// while two folders consume the blocks in record order. The check folder
// validates the trace contract that makes self-correcting replay exact —
// ids strictly increase in record order, every endpoint lies in
// [0, nodes), every dependency names an earlier record, and parent arrival
// + slack reproduces the captured injection — resolves each dependency to
// its parent's record index and builds the children CSR. The hash folder
// folds tracestore's canonical content hash from the checked columns.
// Whatever the thread timing, a load throws the error a serial load meets
// first: the lowest damaged v2 chunk's tracestore::TraceStoreError, else
// std::invalid_argument naming the record index and id of the first id or
// endpoint violation in record order, else of the first dependency
// violation. The last identity makes slack derived data: no slack is
// stored, and slack() recomputes it from the captured times.
//
// A v2 load holds the columns, the parent indices and the children
// (8 bytes per dependency), plus each in-flight chunk's payload and
// decoded dependencies, however long the container is.
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
  /// An empty placeholder to assign a loaded trace to: finalized() is
  /// false, and replay and the screen reject it.
  ReplayTrace() = default;

  /// Validates and indexes an in-memory trace (see the file comment).
  explicit ReplayTrace(const trace::Trace& t);

  /// Decodes every chunk of `reader` in parallel and validates as the
  /// in-memory constructor does; also throws tracestore::TraceStoreError,
  /// naming both hashes, when the records do not hash to the content hash
  /// stored in the footer.
  static ReplayTrace from_store(const tracestore::TraceReader& reader);

  /// True for every trace built from records (not default-constructed).
  bool finalized() const { return finalized_; }

  /// Canonical trace identity: identical to tracestore::content_hash() of
  /// the trace these records came from. Run manifests record it so a
  /// ranking is attributable to an exact trace, and it keys the tracestore
  /// catalog.
  std::uint64_t content_hash() const { return content_hash_; }

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
  /// Protocol type byte (fullsys::ProtoMsg value), as captured.
  std::uint8_t proto(std::uint32_t i) const { return proto_[i]; }
  Cycle inject_time(std::uint32_t i) const { return inject_[i]; }
  Cycle arrive_time(std::uint32_t i) const { return arrive_[i]; }

  // -- dependencies (CSR of parent record indices) ------------------------
  std::uint32_t dep_count(std::uint32_t i) const {
    return dep_offset_[i + 1] - dep_offset_[i];
  }
  /// Record index of record i's k-th dependency.
  std::uint32_t dep_parent_index(std::uint32_t i, std::uint32_t k) const {
    return dep_parent_idx_[dep_offset_[i] + k];
  }
  /// Slack of the dependency of record `child` on record `parent`: the
  /// cycles from the parent's captured arrival to the child's captured
  /// injection, which construction proved equal to the recorded slack.
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
  ReplayTrace(std::string app, std::string capture_network,
              std::int32_t nodes, Cycle capture_runtime, std::uint64_t seed);

  /// The pipeline of the file comment over `source`'s blocks
  /// (replay_input.cpp).
  template <typename Source>
  void ingest(Source& source);

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
  std::vector<std::uint8_t> proto_;
  std::vector<Cycle> inject_;
  std::vector<Cycle> arrive_;

  std::vector<std::uint32_t> dep_offset_;  // size()+1
  std::vector<std::uint32_t> dep_parent_idx_;

  std::vector<std::uint32_t> child_offset_;  // size()+1
  std::vector<std::uint32_t> children_;

  std::uint64_t content_hash_ = 0;
  bool finalized_ = false;
};

}  // namespace sctm::core
