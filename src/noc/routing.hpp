// Routing functions.
//
// A routing function maps (source, current node, destination) to the set of
// *admissible* output ports; the router picks among candidates using local
// congestion state (free credits). Determinism: candidates are returned in a
// fixed preference order, and a router with no better information takes the
// first.
//
// Deadlock freedom: XY and YX are dimension-ordered (cyclic turn sequences
// are impossible); odd-even restricts turns per Chiu's odd-even rules (needs
// the packet's source column, hence the src parameter); torus DOR, XYZ on
// torus3d and ring shortest-path rely on the router's dateline VC discipline
// (see enoc::Router). Table routing (kTable) is up*/down* escape-ordered —
// see noc/route_table.hpp for the tables and the deadlock argument.
#pragma once

#include <array>
#include <vector>

#include "common/config.hpp"
#include "noc/topology.hpp"

namespace sctm::noc {

enum class RoutingAlgo {
  kXY,
  kYX,
  kOddEven,
  kRingShortest,
  kTorusDor,
  /// Dimension-ordered x -> y -> z on the 3D kinds (wrap-aware on torus3d,
  /// shorter way per dimension like kTorusDor).
  kXyz,
  /// Up*/down* shortest-path next-hop tables for irregular (file) fabrics.
  /// Needs a prebuilt RoutingTable; the stateless route_ports() entry point
  /// rejects it.
  kTable,
};

/// The config spellings (enoc.routing, `sctm_cli topo verify --algo`).
inline constexpr Spelling<RoutingAlgo> kRoutingAlgoNames[] = {
    {RoutingAlgo::kXY, "xy"},
    {RoutingAlgo::kYX, "yx"},
    {RoutingAlgo::kOddEven, "odd-even"},
    {RoutingAlgo::kRingShortest, "ring-shortest"},
    {RoutingAlgo::kTorusDor, "torus-dor"},
    {RoutingAlgo::kXyz, "xyz"},
    {RoutingAlgo::kTable, "table"},
};

/// Fixed-capacity admissible-port set. Every routing function here is
/// minimal, so at most two output ports are ever admissible (the two
/// productive directions of a mesh quadrant under odd-even); returning this
/// by value keeps the router's per-flit route computation off the heap.
struct RoutePorts {
  std::array<int, 2> ports{};
  int count = 0;

  void push_back(int p) { ports[static_cast<std::size_t>(count++)] = p; }
  bool empty() const { return count == 0; }
  int size() const { return count; }
  int front() const { return ports[0]; }
  const int* begin() const { return ports.data(); }
  const int* end() const { return ports.data() + count; }
};

/// Admissible output ports (directional indices; never the local port — the
/// caller ejects when cur == dst). Empty result is a contract violation and
/// throws std::logic_error. Allocation-free (datapath hot path). kTable is
/// rejected here: table routes live in a RoutingTable owned by the network.
RoutePorts route_ports(const Topology& topo, RoutingAlgo algo, NodeId src,
                       NodeId cur, NodeId dst);

/// Vector-returning convenience wrapper over route_ports() (tests, tools).
std::vector<int> route_candidates(const Topology& topo, RoutingAlgo algo,
                                  NodeId src, NodeId cur, NodeId dst);

/// First candidate — the deterministic route used by oblivious routers.
int route_first(const Topology& topo, RoutingAlgo algo, NodeId src, NodeId cur,
                NodeId dst);

/// Checks that `algo` is usable on `topo` (e.g. kXY requires a mesh).
bool compatible(const Topology& topo, RoutingAlgo algo);

/// Default algorithm for a topology (XY on mesh, DOR on torus, shortest on
/// ring, XYZ on the 3D kinds, up*/down* tables on file fabrics). RoutingTable
/// applies it when no algorithm is configured.
RoutingAlgo default_algo(const Topology& topo);

inline const char* to_string(RoutingAlgo algo) {
  return spelling_of(kRoutingAlgoNames, algo);
}

}  // namespace sctm::noc
