#include "noc/routing.hpp"

#include <stdexcept>

namespace sctm::noc {

void throw_table_needs_routing_table() {
  throw std::logic_error(
      "route_ports: table routing needs a RoutingTable (owned by the "
      "network); the stateless entry point cannot serve it");
}

void throw_no_admissible_port() {
  throw std::logic_error("routing: no admissible port");
}

RoutePorts route_ports(const Topology& topo, RoutingAlgo algo, NodeId src,
                       NodeId cur, NodeId dst) {
  if (!topo.valid_node(cur) || !topo.valid_node(dst) || !topo.valid_node(src)) {
    throw std::logic_error("route_candidates: invalid node");
  }
  if (cur == dst) return {};
  return route_coords(topo, algo, topo.coords(src), topo.coords(cur),
                      topo.coords(dst));
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
