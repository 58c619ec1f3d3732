#include "noc/routing.hpp"

#include <stdexcept>

namespace sctm::noc {
namespace {

RoutePorts xy_route(const Topology& topo, NodeId cur, NodeId dst,
                    bool x_first) {
  const Coord c = topo.coords(cur);
  const Coord d = topo.coords(dst);
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
RoutePorts odd_even_route(const Topology& topo, NodeId src, NodeId cur,
                          NodeId dst) {
  const Coord c = topo.coords(cur);
  const Coord d = topo.coords(dst);
  const Coord s = topo.coords(src);
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

RoutePorts ring_route(const Topology& topo, NodeId cur, NodeId dst) {
  const int count = topo.node_count();
  const int fwd = (static_cast<int>(dst) - cur + count) % count;
  const int bwd = count - fwd;
  RoutePorts out;
  out.push_back(fwd <= bwd ? kRingCw : kRingCcw);
  return out;
}

// Dimension-ordered x -> y -> z. On mesh3d each dimension has one
// productive direction; on torus3d the shorter way wins (ties break toward
// the positive direction, matching torus_dor_route).
RoutePorts xyz_route(const Topology& topo, NodeId cur, NodeId dst) {
  const Coord c = topo.coords(cur);
  const Coord d = topo.coords(dst);
  const bool wraps = topo.kind() == Topology::Kind::kTorus3D;
  RoutePorts out;
  const auto resolve = [&](int cc, int dc, int extent, int pos, int neg) {
    if (cc == dc) return false;
    if (wraps) {
      const int fwd = ((dc - cc) % extent + extent) % extent;
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

RoutePorts torus_dor_route(const Topology& topo, NodeId cur, NodeId dst) {
  const Coord c = topo.coords(cur);
  const Coord d = topo.coords(dst);
  RoutePorts out;
  if (c.x != d.x) {
    const int w = topo.width();
    const int east_hops = ((d.x - c.x) % w + w) % w;
    const int west_hops = w - east_hops;
    out.push_back(east_hops <= west_hops ? kEast : kWest);
    return out;
  }
  const int h = topo.height();
  const int south_hops = ((d.y - c.y) % h + h) % h;
  const int north_hops = h - south_hops;
  out.push_back(south_hops <= north_hops ? kSouth : kNorth);
  return out;
}

}  // namespace

RoutePorts route_ports(const Topology& topo, RoutingAlgo algo, NodeId src,
                       NodeId cur, NodeId dst) {
  if (!topo.valid_node(cur) || !topo.valid_node(dst) || !topo.valid_node(src)) {
    throw std::logic_error("route_candidates: invalid node");
  }
  if (cur == dst) return {};
  RoutePorts out;
  switch (algo) {
    case RoutingAlgo::kXY: out = xy_route(topo, cur, dst, /*x_first=*/true); break;
    case RoutingAlgo::kYX: out = xy_route(topo, cur, dst, /*x_first=*/false); break;
    case RoutingAlgo::kOddEven: out = odd_even_route(topo, src, cur, dst); break;
    case RoutingAlgo::kRingShortest: out = ring_route(topo, cur, dst); break;
    case RoutingAlgo::kTorusDor: out = torus_dor_route(topo, cur, dst); break;
    case RoutingAlgo::kXyz: out = xyz_route(topo, cur, dst); break;
    case RoutingAlgo::kTable:
      throw std::logic_error(
          "route_ports: table routing needs a RoutingTable (owned by the "
          "network); the stateless entry point cannot serve it");
  }
  if (out.empty()) {
    throw std::logic_error("route_candidates: no admissible port");
  }
  return out;
}

std::vector<int> route_candidates(const Topology& topo, RoutingAlgo algo,
                                  NodeId src, NodeId cur, NodeId dst) {
  const RoutePorts p = route_ports(topo, algo, src, cur, dst);
  return std::vector<int>(p.begin(), p.end());
}

int route_first(const Topology& topo, RoutingAlgo algo, NodeId src, NodeId cur,
                NodeId dst) {
  return route_ports(topo, algo, src, cur, dst).front();
}

bool compatible(const Topology& topo, RoutingAlgo algo) {
  using Kind = Topology::Kind;
  switch (algo) {
    case RoutingAlgo::kXY:
    case RoutingAlgo::kYX:
    case RoutingAlgo::kOddEven:
      return topo.kind() == Kind::kMesh;
    case RoutingAlgo::kRingShortest:
      return topo.kind() == Kind::kRing;
    case RoutingAlgo::kTorusDor:
      return topo.kind() == Kind::kTorus;
    case RoutingAlgo::kXyz:
      return topo.kind() == Kind::kMesh3D || topo.kind() == Kind::kTorus3D;
    case RoutingAlgo::kTable:
      return true;  // the escape ordering exists on any connected graph
  }
  return false;
}

RoutingAlgo default_algo(const Topology& topo) {
  switch (topo.kind()) {
    case Topology::Kind::kMesh: return RoutingAlgo::kXY;
    case Topology::Kind::kTorus: return RoutingAlgo::kTorusDor;
    case Topology::Kind::kRing: return RoutingAlgo::kRingShortest;
    case Topology::Kind::kMesh3D:
    case Topology::Kind::kTorus3D:
      return RoutingAlgo::kXyz;
    case Topology::Kind::kFile: return RoutingAlgo::kTable;
  }
  return RoutingAlgo::kXY;
}

}  // namespace sctm::noc
