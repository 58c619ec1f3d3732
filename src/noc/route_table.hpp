// Table-driven routing: precomputed next-hop tables behind the same
// (source, current, destination) -> ports contract as the stateless routing
// functions.
//
// A RoutingTable wraps one (topology, algorithm) pair for its whole life
// (its owner keeps it at a stable address). It is where an unconfigured
// algorithm resolves to the fabric's natural one (default_algo), so every
// consumer reads the resolved algo(). For the coordinate algorithms it is a
// thin dispatcher onto noc::route_ports() — stateless, allocation-free,
// bit-identical to calling the free function. For kTable it builds up*/down*
// shortest-path next-hop tables once at construction (network build time),
// so the per-flit hot path is two array reads.
//
// Up*/down* (Autonet): a BFS spanning tree from node 0 assigns each node a
// level; nodes are totally ordered by (level, id). A hop u -> v is "up" when
// it moves toward the root (ord(v) < ord(u)) and "down" otherwise. Legal
// routes are up-hops followed by down-hops — once a packet takes a down hop
// it may never go up again. Per destination the table stores the shortest
// *legal* route: a free-phase next hop (packet has only gone up so far) and
// a down-committed next hop. The phase at an intermediate node is derived
// from the input port alone (arriving over a down edge commits the packet),
// so routers need no extra header state.
//
// Deadlock freedom: up edges form a DAG (ord strictly decreases) and down
// edges form a DAG (ord strictly increases); since no route ever turns from
// a down edge onto an up edge, every channel-dependency chain walks the up
// DAG then the down DAG and cannot cycle. audit_routes() verifies this
// property — and route termination/minimality — programmatically.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace sctm::noc {

class RoutingTable {
 public:
  /// Builds the next-hop tables when the algorithm is kTable; O(1)
  /// otherwise. An unset `algo` resolves to default_algo(topo).
  RoutingTable(const Topology& topo, std::optional<RoutingAlgo> algo);

  /// Admissible output ports, mirroring noc::route_ports()'s contract
  /// (invalid nodes throw std::logic_error, cur == dst returns empty).
  /// `in_port` is the input port the packet occupies at `cur` (-1 for the
  /// injection port); only table routing reads it, to derive the up*/down*
  /// phase. Allocation-free.
  RoutePorts route(NodeId src, NodeId cur, NodeId dst, int in_port) const;

  const Topology& topology() const { return topo_; }
  RoutingAlgo algo() const { return algo_; }
  bool table_backed() const { return algo_ == RoutingAlgo::kTable; }

  /// True when the hop out of `n` through `port` moves toward the spanning
  /// tree root (meaningful only when table_backed()).
  bool up_edge(NodeId n, int port) const {
    return up_[static_cast<std::size_t>(n) * stride_ +
               static_cast<std::size_t>(port)] != 0;
  }

  /// Length of the stored route src -> dst: the shortest *legal* up*/down*
  /// distance for kTable (>= Topology::distance when the escape ordering
  /// forbids a shortest graph path); meaningful only when table_backed().
  int valid_distance(NodeId src, NodeId dst) const {
    return du_[static_cast<std::size_t>(src) * nodes_ +
               static_cast<std::size_t>(dst)];
  }

  /// Walks the deterministic route src -> dst (first candidate per hop,
  /// phase-correct for table routing), calling fn(node, out_port) per hop.
  /// Works for every algorithm — the analytic models and `sctm_cli topo
  /// verify` emit routes through this instead of re-deriving coordinates.
  template <typename Fn>
  void walk(NodeId src, NodeId dst, Fn&& fn) const {
    NodeId cur = src;
    int in_port = -1;
    int guard = 4 * topo_.node_count() + 8;
    while (cur != dst) {
      const int dir = route(src, cur, dst, in_port).front();
      fn(cur, dir);
      const NodeId next = topo_.neighbor(cur, dir);
      in_port = topo_.arrival_port(cur, dir);
      cur = next;
      if (--guard < 0) {
        throw std::logic_error("RoutingTable::walk: route does not terminate");
      }
    }
  }

 private:
  void build_tables();

  Topology topo_;
  RoutingAlgo algo_;
  int nodes_ = 0;
  int stride_ = 0;
  // kTable state; empty for coordinate algorithms.
  std::vector<std::int16_t> free_hop_;  // [cur * nodes + dst]
  std::vector<std::int16_t> down_hop_;  // [cur * nodes + dst]
  std::vector<std::uint16_t> du_;       // shortest legal distance
  std::vector<std::uint8_t> up_;        // [node * stride + port]
};

/// Route-table health report (tests, `sctm_cli topo verify`): every pair's
/// route walked end to end, lengths checked (graph distance for the minimal
/// coordinate algorithms, shortest legal distance for kTable), and the
/// channel-dependency graph of all traversed (link, link) successions
/// checked for cycles.
struct RouteAudit {
  bool ok = false;
  std::string error;        // first failure, empty when ok
  int routes_checked = 0;
  int max_hops = 0;
  bool cdg_acyclic = false;
};

RouteAudit audit_routes(const RoutingTable& rt);

}  // namespace sctm::noc
