// Routing functions.
//
// A routing function maps (source, current node, destination) to the set of
// *admissible* output ports; the router picks among candidates using local
// congestion state (free credits). Determinism: candidates are returned in a
// fixed preference order, and a router with no better information takes the
// first.
//
// Every coordinate algorithm has one implementation, route_coords(), which
// reads the three nodes' coordinates and the fabric's extents. The stateless
// route_ports() derives the coordinates from the topology on each call; a
// RoutingTable (noc/route_table.hpp) derives every node's once and routes
// the datapath from them, so a route computation divides nothing.
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
/// throws std::logic_error. Allocation-free. kTable is rejected here: table
/// routes live in a RoutingTable owned by the network.
RoutePorts route_ports(const Topology& topo, RoutingAlgo algo, NodeId src,
                       NodeId cur, NodeId dst);

/// Throw paths of route_coords(), kept out of line.
[[noreturn, gnu::cold]] void throw_table_needs_routing_table();
[[noreturn, gnu::cold]] void throw_no_admissible_port();

namespace detail {

/// (to - from) mod extent, for coordinates in [0, extent).
inline int forward_hops(int from, int to, int extent) {
  const int hops = to - from;
  return hops < 0 ? hops + extent : hops;
}

inline RoutePorts xy_route(Coord c, Coord d, bool x_first) {
  RoutePorts out;
  auto push_x = [&] {
    if (d.x > c.x) out.push_back(kEast);
    else if (d.x < c.x) out.push_back(kWest);
  };
  auto push_y = [&] {
    if (d.y > c.y) out.push_back(kSouth);
    else if (d.y < c.y) out.push_back(kNorth);
  };
  if (x_first) {
    push_x();
    if (out.empty()) push_y();
  } else {
    push_y();
    if (out.empty()) push_x();
  }
  return out;
}

// Chiu's odd-even minimal adaptive routing (IEEE TPDS 2000, Fig. 3).
// Even columns forbid EN/ES turns; odd columns forbid NW/SW turns. The
// vertical direction sign does not affect the rules, so our y-down
// convention is immaterial.
inline RoutePorts odd_even_route(Coord s, Coord c, Coord d) {
  RoutePorts out;
  const int e0 = d.x - c.x;
  const int e1 = d.y - c.y;
  const int vertical = e1 > 0 ? kSouth : kNorth;

  if (e0 == 0) {
    if (e1 != 0) out.push_back(vertical);
    return out;
  }
  if (e0 > 0) {  // eastbound
    if (e1 == 0) {
      out.push_back(kEast);
    } else {
      if (c.x % 2 == 1 || c.x == s.x) out.push_back(vertical);
      if (d.x % 2 == 1 || e0 != 1) out.push_back(kEast);
    }
  } else {  // westbound
    out.push_back(kWest);
    if (c.x % 2 == 0 && e1 != 0) out.push_back(vertical);
  }
  return out;
}

// A ring node's x coordinate is its id, and the ring's width its size.
inline RoutePorts ring_route(Coord c, Coord d, int count) {
  const int fwd = forward_hops(c.x, d.x, count);
  const int bwd = count - fwd;
  RoutePorts out;
  out.push_back(fwd <= bwd ? kRingCw : kRingCcw);
  return out;
}

// Dimension-ordered x -> y -> z. On mesh3d each dimension has one
// productive direction; on torus3d the shorter way wins (ties break toward
// the positive direction, matching torus_dor_route).
inline RoutePorts xyz_route(const Topology& topo, Coord c, Coord d) {
  const bool wraps = topo.kind() == Topology::Kind::kTorus3D;
  RoutePorts out;
  const auto resolve = [&](int cc, int dc, int extent, int pos, int neg) {
    if (cc == dc) return false;
    if (wraps) {
      const int fwd = forward_hops(cc, dc, extent);
      out.push_back(fwd <= extent - fwd ? pos : neg);
    } else {
      out.push_back(dc > cc ? pos : neg);
    }
    return true;
  };
  if (resolve(c.x, d.x, topo.width(), kEast, kWest)) return out;
  if (resolve(c.y, d.y, topo.height(), kSouth, kNorth)) return out;
  resolve(c.z, d.z, topo.depth(), kUp, kDown);
  return out;
}

inline RoutePorts torus_dor_route(const Topology& topo, Coord c, Coord d) {
  RoutePorts out;
  if (c.x != d.x) {
    const int w = topo.width();
    const int east_hops = forward_hops(c.x, d.x, w);
    const int west_hops = w - east_hops;
    out.push_back(east_hops <= west_hops ? kEast : kWest);
    return out;
  }
  const int h = topo.height();
  const int south_hops = forward_hops(c.y, d.y, h);
  const int north_hops = h - south_hops;
  out.push_back(south_hops <= north_hops ? kSouth : kNorth);
  return out;
}

}  // namespace detail

/// route_ports() from coordinates: `s`, `c` and `d` are the source, current
/// and destination nodes' coordinates, with c != d, and `topo` supplies the
/// extents. Every caller routes through here. Inline, so a router's route
/// computation compiles into its tick.
inline RoutePorts route_coords(const Topology& topo, RoutingAlgo algo,
                               Coord s, Coord c, Coord d) {
  RoutePorts out;
  switch (algo) {
    case RoutingAlgo::kXY: out = detail::xy_route(c, d, /*x_first=*/true); break;
    case RoutingAlgo::kYX: out = detail::xy_route(c, d, /*x_first=*/false); break;
    case RoutingAlgo::kOddEven: out = detail::odd_even_route(s, c, d); break;
    case RoutingAlgo::kRingShortest:
      out = detail::ring_route(c, d, topo.width());
      break;
    case RoutingAlgo::kTorusDor: out = detail::torus_dor_route(topo, c, d); break;
    case RoutingAlgo::kXyz: out = detail::xyz_route(topo, c, d); break;
    case RoutingAlgo::kTable: throw_table_needs_routing_table();
  }
  if (out.empty()) throw_no_admissible_port();
  return out;
}

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
