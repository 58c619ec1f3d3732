// Trace records: the one in-memory form of a captured workload, shared by
// the CMP that records it, the file readers and writers, and replay
// (core::ReplayTrace holds one by value).
//
// A record is one network message with its capture timing and its causal
// dependencies: a parent is a message whose *arrival at this record's source
// node* gated the injection. The slack between that arrival and the
// injection is derived data, inject[i] - arrive[parent] (DESIGN.md §4);
// files store it, and their one ingest (tracestore/ingest.hpp) checks it.
// Records are columns in injection order, dependencies a CSR of parent
// record indices.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "noc/message.hpp"

namespace sctm::trace {

struct Records {
  std::vector<MsgId> id;
  std::vector<NodeId> src;
  std::vector<NodeId> dst;
  std::vector<std::uint32_t> size_bytes;
  std::vector<noc::MsgClass> cls;
  /// Protocol type byte (fullsys::ProtoMsg value); opaque to this layer.
  std::vector<std::uint8_t> proto;
  std::vector<Cycle> inject;  // capture-network injection time
  std::vector<Cycle> arrive;  // capture-network arrival time

  /// Record i's parents are parent[dep_offset[i]] .. parent[dep_offset[i +
  /// 1] - 1], as record indices; dep_offset has size() + 1 entries.
  std::vector<std::uint32_t> dep_offset = {0};
  std::vector<std::uint32_t> parent;

  std::size_t size() const { return id.size(); }
  bool empty() const { return id.empty(); }

  std::uint32_t dep_count(std::size_t i) const {
    return dep_offset[i + 1] - dep_offset[i];
  }
  Cycle latency(std::size_t i) const { return arrive[i] - inject[i]; }
  /// Cycles from record p's captured arrival to record i's captured
  /// injection: the slack of i's dependency on p.
  Cycle slack(std::size_t i, std::uint32_t p) const {
    return inject[i] - arrive[p];
  }

  /// Appends a record without dependencies; add_parent() gives it some.
  void append(MsgId msg, NodeId from, NodeId to, std::uint32_t bytes,
              noc::MsgClass c, std::uint8_t p, Cycle injected,
              Cycle arrived) {
    id.push_back(msg);
    src.push_back(from);
    dst.push_back(to);
    size_bytes.push_back(bytes);
    cls.push_back(c);
    proto.push_back(p);
    inject.push_back(injected);
    arrive.push_back(arrived);
    dep_offset.push_back(dep_offset.back());
  }
  /// Adds record `p` to the last record's parents.
  void add_parent(std::uint32_t p) {
    parent.push_back(p);
    ++dep_offset.back();
  }

  bool operator==(const Records&) const = default;
};

/// Provenance of the capture run.
struct TraceMeta {
  std::string app;
  std::string capture_network;
  std::int32_t nodes = 0;
  Cycle capture_runtime = 0;  // application runtime on the capture network
  std::uint64_t seed = 0;

  bool operator==(const TraceMeta&) const = default;
};

struct Trace : TraceMeta {
  /// The trace contract (fullsys::CmpSystem records it; every file reader
  /// and core::ReplayTrace reject a trace that breaks it, naming the
  /// record): ids strictly increase in record order, src and dst lie in
  /// [0, nodes), every parent is an earlier record, and, compared without
  /// wrap-around, every record arrives no earlier than it injects and every
  /// parent arrives no later than its child injects.
  Records records;

  bool operator==(const Trace&) const = default;
};

}  // namespace sctm::trace
