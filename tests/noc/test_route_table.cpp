// Property suite for the table-driven routing layer (DESIGN.md §13).
//
// The up*/down* tables are checked against an *independent* reference: a
// BFS over the (node, phase) product graph built from this test's own
// level/order computation — not the table's internals — so a bug in the
// builder's dd/du recursion cannot hide. Note the reference is the shortest
// *legal* distance: on wrap-around fabrics the escape ordering can forbid
// every shortest graph path, so comparing against plain Dijkstra distance
// would be wrong (see LegalDistanceCanExceedGraphDistance).
#include "noc/route_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace sctm::noc {
namespace {

/// Random connected graph: a random spanning tree plus `extra` random
/// chords, rendered in the topology-file grammar.
Topology random_graph(std::uint64_t seed, int nodes, int extra) {
  Rng rng(seed);
  std::set<std::pair<int, int>> edges;
  for (int i = 1; i < nodes; ++i) {
    const int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(i)));
    edges.insert({std::min(i, j), std::max(i, j)});
  }
  for (int k = 0; k < extra; ++k) {
    const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nodes)));
    const int b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nodes)));
    if (a != b) edges.insert({std::min(a, b), std::max(a, b)});
  }
  std::ostringstream text;
  text << "nodes " << nodes << "\n";
  for (const auto& [a, b] : edges) text << "edge " << a << " " << b << "\n";
  return Topology::from_text(text.str(), "random" + std::to_string(seed));
}

/// Independent legal-distance reference. Recomputes BFS levels from node 0
/// and the (level, id) total order, then BFSes the (node, committed) product
/// graph: free states may go up (stay free) or down (commit); committed
/// states only go down.
std::vector<int> legal_distances_from(const Topology& t, NodeId src) {
  const int n = t.node_count();
  std::vector<int> level(static_cast<std::size_t>(n), -1);
  std::deque<NodeId> q{0};
  level[0] = 0;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop_front();
    for (int p = 0; p < t.radix(u); ++p) {
      const NodeId v = t.neighbor(u, p);
      if (v != kInvalidNode && level[static_cast<std::size_t>(v)] < 0) {
        level[static_cast<std::size_t>(v)] =
            level[static_cast<std::size_t>(u)] + 1;
        q.push_back(v);
      }
    }
  }
  const auto up = [&](NodeId from, NodeId to) {
    const int lf = level[static_cast<std::size_t>(from)];
    const int lt = level[static_cast<std::size_t>(to)];
    return lt < lf || (lt == lf && to < from);
  };
  // Product BFS: state = node * 2 + committed.
  std::vector<int> dist(static_cast<std::size_t>(n) * 2, -1);
  std::deque<int> pq{static_cast<int>(src) * 2};
  dist[static_cast<std::size_t>(src) * 2] = 0;
  while (!pq.empty()) {
    const int s = pq.front();
    pq.pop_front();
    const NodeId u = static_cast<NodeId>(s / 2);
    const bool committed = (s % 2) != 0;
    for (int p = 0; p < t.radix(u); ++p) {
      const NodeId v = t.neighbor(u, p);
      if (v == kInvalidNode) continue;
      if (committed && up(u, v)) continue;  // down may never turn up
      const int ns = static_cast<int>(v) * 2 + (up(u, v) ? 0 : 1);
      if (dist[static_cast<std::size_t>(ns)] >= 0) continue;
      dist[static_cast<std::size_t>(ns)] = dist[static_cast<std::size_t>(s)] + 1;
      pq.push_back(ns);
    }
  }
  std::vector<int> best(static_cast<std::size_t>(n), -1);
  for (NodeId v = 0; v < n; ++v) {
    const int f = dist[static_cast<std::size_t>(v) * 2];
    const int c = dist[static_cast<std::size_t>(v) * 2 + 1];
    best[static_cast<std::size_t>(v)] =
        f < 0 ? c : (c < 0 ? f : std::min(f, c));
  }
  best[static_cast<std::size_t>(src)] = 0;
  return best;
}

TEST(RouteTable, RandomGraphsMatchIndependentLegalShortestPaths) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 977);
    const int nodes = 5 + static_cast<int>(rng.next_below(20));
    const int extra = nodes / 2 + static_cast<int>(rng.next_below(8));
    const auto t = random_graph(seed, nodes, extra);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " " + t.describe());
    const RoutingTable rt(t, RoutingAlgo::kTable);

    for (NodeId s = 0; s < t.node_count(); ++s) {
      const auto ref = legal_distances_from(t, s);
      for (NodeId d = 0; d < t.node_count(); ++d) {
        if (s == d) continue;
        // Every route terminates, at exactly the legal shortest length.
        int hops = 0;
        rt.walk(s, d, [&](NodeId, int) { ++hops; });
        EXPECT_EQ(hops, ref[static_cast<std::size_t>(d)])
            << s << " -> " << d;
        EXPECT_EQ(rt.valid_distance(s, d), ref[static_cast<std::size_t>(d)])
            << s << " -> " << d;
        EXPECT_GE(rt.valid_distance(s, d), t.distance(s, d));
      }
    }

    // Escape ordering: no route ever turns from a down edge onto an up
    // edge, and the whole channel-dependency graph is acyclic.
    const auto audit = audit_routes(rt);
    EXPECT_TRUE(audit.ok) << audit.error;
    EXPECT_TRUE(audit.cdg_acyclic);
    EXPECT_EQ(audit.routes_checked, t.node_count() * (t.node_count() - 1));
  }
}

TEST(RouteTable, LegalDistanceCanExceedGraphDistance) {
  // A 6-ring expressed as a file fabric: the up*/down* ordering forbids the
  // short arc between the two spanning-tree leaves, so 2 -> 4 is 4 legal
  // hops even though the graph distance is 2. (This is exactly why the
  // audit checks table routes against valid_distance, not distance.)
  const auto t = Topology::from_text(
      "nodes 6\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\nedge 5 0\n",
      "ring6");
  const RoutingTable rt(t, RoutingAlgo::kTable);
  EXPECT_EQ(t.distance(2, 4), 2);
  EXPECT_EQ(rt.valid_distance(2, 4), 4);
  int hops = 0;
  rt.walk(2, 4, [&](NodeId, int) { ++hops; });
  EXPECT_EQ(hops, 4);
  EXPECT_TRUE(audit_routes(rt).ok);
}

TEST(RouteTable, CoordinateAlgorithmsAuditCleanOnEveryKind) {
  const struct {
    Topology topo;
    RoutingAlgo algo;
  } cases[] = {
      {Topology::mesh(4, 4), RoutingAlgo::kXY},
      {Topology::mesh(4, 4), RoutingAlgo::kYX},
      {Topology::mesh(5, 5), RoutingAlgo::kOddEven},
      {Topology::torus(4, 4), RoutingAlgo::kTorusDor},
      {Topology::ring(8), RoutingAlgo::kRingShortest},
      {Topology::mesh3d(3, 3, 3), RoutingAlgo::kXyz},
      {Topology::torus3d(4, 4, 2), RoutingAlgo::kXyz},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.topo.describe() + " / " + to_string(c.algo));
    const RoutingTable rt(c.topo, c.algo);
    const auto audit = audit_routes(rt);
    EXPECT_TRUE(audit.ok) << audit.error;
    EXPECT_TRUE(audit.cdg_acyclic);
  }
}

TEST(RouteTable, DispatchesCoordinateAlgosToStatelessFunctions) {
  // The table routes from the coordinates it cached at construction, the
  // stateless entry point from coordinates it derives on each call; both run
  // route_coords(), so they agree on every (src, cur, dst), odd-even's
  // source-column rule included.
  const struct {
    Topology topo;
    RoutingAlgo algo;
  } cases[] = {
      {Topology::mesh(4, 4), RoutingAlgo::kXY},
      {Topology::mesh(4, 3), RoutingAlgo::kYX},
      {Topology::mesh(5, 5), RoutingAlgo::kOddEven},
      {Topology::torus(4, 3), RoutingAlgo::kTorusDor},
      {Topology::ring(7), RoutingAlgo::kRingShortest},
      {Topology::mesh3d(3, 2, 2), RoutingAlgo::kXyz},
      {Topology::torus3d(3, 3, 2), RoutingAlgo::kXyz},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.topo.describe() + " / " + to_string(c.algo));
    const RoutingTable rt(c.topo, c.algo);
    const NodeId n = c.topo.node_count();
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId cur = 0; cur < n; ++cur) {
        for (NodeId d = 0; d < n; ++d) {
          const auto a = rt.route(s, cur, d, -1);
          const auto b = route_ports(c.topo, c.algo, s, cur, d);
          ASSERT_EQ(a.size(), b.size());
          for (int i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a.ports[static_cast<std::size_t>(i)],
                      b.ports[static_cast<std::size_t>(i)]);
          }
        }
      }
    }
  }
}

TEST(RouteTable, XyzRoutesDimensionOrderAndMinimal) {
  const auto t = Topology::mesh3d(4, 3, 2);
  const RoutingTable rt(t, RoutingAlgo::kXyz);
  for (NodeId s = 0; s < t.node_count(); ++s) {
    for (NodeId d = 0; d < t.node_count(); ++d) {
      if (s == d) continue;
      int hops = 0;
      int prev_axis = -1;
      rt.walk(s, d, [&](NodeId cur, int dir) {
        ++hops;
        const int axis = t.port_axis(cur, dir);
        EXPECT_GE(axis, prev_axis) << "XYZ must resolve x, then y, then z";
        prev_axis = axis;
      });
      EXPECT_EQ(hops, t.distance(s, d));
    }
  }
}

TEST(RouteTable, XyzOnTorus3DTakesTheShortWay) {
  const auto t = Topology::torus3d(4, 4, 4);
  const RoutingTable rt(t, RoutingAlgo::kXyz);
  for (NodeId s = 0; s < t.node_count(); ++s) {
    for (NodeId d = 0; d < t.node_count(); ++d) {
      if (s == d) continue;
      int hops = 0;
      rt.walk(s, d, [&](NodeId, int) { ++hops; });
      EXPECT_EQ(hops, t.distance(s, d));
    }
  }
}

TEST(RouteTable, StatelessEntryPointRejectsTableAlgo) {
  const auto t = Topology::from_text("nodes 2\nedge 0 1\n");
  EXPECT_THROW((void)route_ports(t, RoutingAlgo::kTable, 0, 0, 1),
               std::logic_error);
  EXPECT_TRUE(compatible(t, RoutingAlgo::kTable));
  EXPECT_EQ(default_algo(t), RoutingAlgo::kTable);
  EXPECT_EQ(default_algo(Topology::mesh3d(2, 2, 2)), RoutingAlgo::kXyz);
  EXPECT_EQ(default_algo(Topology::torus3d(2, 2, 2)), RoutingAlgo::kXyz);
}

TEST(RouteTable, SelfRouteEmptyAndInvalidThrows) {
  const auto t = Topology::from_text("nodes 3\nedge 0 1\nedge 1 2\n");
  const RoutingTable rt(t, RoutingAlgo::kTable);
  EXPECT_TRUE(rt.route(1, 1, 1, -1).empty());
  EXPECT_THROW((void)rt.route(0, 0, 99, -1), std::logic_error);
}

}  // namespace
}  // namespace sctm::noc
