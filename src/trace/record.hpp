// Trace records: the on-disk/in-memory form of a captured workload.
//
// A record is one network message with its capture timing and its causal
// dependency annotations. The dependency is the paper's key addition over a
// plain timestamped trace: `parent` is the message whose *arrival at this
// record's source node* gated the injection, and `slack` is the endpoint
// processing/compute time between that arrival and the injection. Replay
// reconstructs injection times from dependencies instead of trusting the
// frozen timestamps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "noc/message.hpp"

namespace sctm::trace {

struct TraceDep {
  MsgId parent = kInvalidMsg;
  Cycle slack = 0;

  bool operator==(const TraceDep&) const = default;
};

struct TraceRecord {
  MsgId id = kInvalidMsg;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t size_bytes = 0;
  noc::MsgClass cls = noc::MsgClass::kRequest;
  /// Protocol type byte (fullsys::ProtoMsg value); opaque to this layer.
  std::uint8_t proto = 0;

  Cycle inject_time = kNoCycle;  // capture-network injection time
  Cycle arrive_time = kNoCycle;  // capture-network arrival time

  std::vector<TraceDep> deps;

  Cycle latency() const { return arrive_time - inject_time; }
  bool operator==(const TraceRecord&) const = default;
};

struct Trace {
  // Metadata (provenance of the capture run).
  std::string app;
  std::string capture_network;
  std::int32_t nodes = 0;
  Cycle capture_runtime = 0;  // application runtime on the capture network
  std::uint64_t seed = 0;

  /// Records in injection order. Invariants (TraceCapture produces them;
  /// core::ReplayTrace rejects a trace that breaks one): ids
  /// strictly increase in record order, src and dst lie in [0, nodes), and
  /// every dependency names an earlier record whose arrival + slack equals
  /// this record's inject_time.
  std::vector<TraceRecord> records;

  bool operator==(const Trace&) const = default;
};

}  // namespace sctm::trace
