#include "noc/routing.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace sctm::noc {
namespace {

// Walks a packet from src to dst always taking the given candidate index
// (mod candidate count); asserts progress and returns the hop count.
int walk(const Topology& topo, RoutingAlgo algo, NodeId src, NodeId dst,
         int pick = 0) {
  NodeId cur = src;
  int hops = 0;
  while (cur != dst) {
    const auto cands = route_candidates(topo, algo, src, cur, dst);
    EXPECT_FALSE(cands.empty());
    const int dir = cands[static_cast<std::size_t>(pick) % cands.size()];
    const NodeId next = topo.neighbor(cur, dir);
    EXPECT_NE(next, kInvalidNode);
    // Minimal routing: every hop reduces distance by exactly one.
    EXPECT_EQ(topo.distance(next, dst), topo.distance(cur, dst) - 1)
        << "non-minimal hop " << cur << "->" << next;
    cur = next;
    if (++hops > topo.node_count() * 2) {
      ADD_FAILURE() << "routing loop " << src << "->" << dst;
      break;
    }
  }
  return hops;
}

TEST(Routing, XYReachesEveryPairMinimally) {
  const auto t = Topology::mesh(4, 4);
  for (NodeId s = 0; s < t.node_count(); ++s) {
    for (NodeId d = 0; d < t.node_count(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(walk(t, RoutingAlgo::kXY, s, d), t.distance(s, d));
    }
  }
}

TEST(Routing, XYGoesXFirst) {
  const auto t = Topology::mesh(4, 4);
  // From (0,0) to (2,2): must start east.
  EXPECT_EQ(route_first(t, RoutingAlgo::kXY, 0, 0, 10), kEast);
  // Same column: goes vertical.
  EXPECT_EQ(route_first(t, RoutingAlgo::kXY, 0, 0, 8), kSouth);
}

TEST(Routing, YXGoesYFirst) {
  const auto t = Topology::mesh(4, 4);
  EXPECT_EQ(route_first(t, RoutingAlgo::kYX, 0, 0, 10), kSouth);
  EXPECT_EQ(route_first(t, RoutingAlgo::kYX, 0, 0, 2), kEast);
}

TEST(Routing, YXReachesEveryPairMinimally) {
  const auto t = Topology::mesh(3, 5);
  for (NodeId s = 0; s < t.node_count(); ++s) {
    for (NodeId d = 0; d < t.node_count(); ++d) {
      if (s != d) {
        EXPECT_EQ(walk(t, RoutingAlgo::kYX, s, d), t.distance(s, d));
      }
    }
  }
}

TEST(Routing, OddEvenMinimalAndComplete) {
  const auto t = Topology::mesh(5, 5);
  for (NodeId s = 0; s < t.node_count(); ++s) {
    for (NodeId d = 0; d < t.node_count(); ++d) {
      if (s == d) continue;
      // Exercise both extreme adaptive choices.
      EXPECT_EQ(walk(t, RoutingAlgo::kOddEven, s, d, 0), t.distance(s, d));
      EXPECT_EQ(walk(t, RoutingAlgo::kOddEven, s, d, 1), t.distance(s, d));
    }
  }
}

TEST(Routing, OddEvenForbidsEastTurnsInEvenColumns) {
  const auto t = Topology::mesh(6, 6);
  for (NodeId s = 0; s < t.node_count(); ++s) {
    for (NodeId d = 0; d < t.node_count(); ++d) {
      if (s == d) continue;
      for (NodeId cur = 0; cur < t.node_count(); ++cur) {
        const Coord c = t.coords(cur);
        const Coord dc = t.coords(d);
        const Coord sc = t.coords(s);
        if (dc.x <= c.x) continue;           // only eastbound cases
        if (c.x % 2 != 0 || c.x == sc.x) continue;  // rule applies: even, not source col
        if (dc.y == c.y) continue;
        const auto cands = route_candidates(t, RoutingAlgo::kOddEven, s, cur, d);
        for (const int dir : cands) {
          EXPECT_TRUE(dir == kEast)
              << "EN/ES turn allowed in even column at " << cur;
        }
      }
    }
  }
}

TEST(Routing, RingShortestPicksShortArc) {
  const auto t = Topology::ring(8);
  EXPECT_EQ(route_first(t, RoutingAlgo::kRingShortest, 0, 0, 2), kRingCw);
  EXPECT_EQ(route_first(t, RoutingAlgo::kRingShortest, 0, 0, 6), kRingCcw);
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId d = 0; d < 8; ++d) {
      if (s != d) {
        EXPECT_EQ(walk(t, RoutingAlgo::kRingShortest, s, d), t.distance(s, d));
      }
    }
  }
}

TEST(Routing, TorusDorMinimal) {
  const auto t = Topology::torus(4, 4);
  for (NodeId s = 0; s < t.node_count(); ++s) {
    for (NodeId d = 0; d < t.node_count(); ++d) {
      if (s != d) {
        EXPECT_EQ(walk(t, RoutingAlgo::kTorusDor, s, d), t.distance(s, d));
      }
    }
  }
}

TEST(Routing, TorusDorFinishesXBeforeY) {
  const auto t = Topology::torus(4, 4);
  // 0 -> 5 needs x then y; first hop must be in x.
  const int dir = route_first(t, RoutingAlgo::kTorusDor, 0, 0, 5);
  EXPECT_TRUE(dir == kEast || dir == kWest);
}

TEST(Routing, SelfRouteIsEmpty) {
  const auto t = Topology::mesh(3, 3);
  EXPECT_TRUE(route_candidates(t, RoutingAlgo::kXY, 4, 4, 4).empty());
}

TEST(Routing, InvalidNodeThrows) {
  const auto t = Topology::mesh(3, 3);
  EXPECT_THROW(route_candidates(t, RoutingAlgo::kXY, 0, 0, 99),
               std::logic_error);
}

TEST(Routing, CompatibilityMatrix) {
  EXPECT_TRUE(compatible(Topology::mesh(2, 2), RoutingAlgo::kXY));
  EXPECT_FALSE(compatible(Topology::torus(2, 2), RoutingAlgo::kXY));
  EXPECT_TRUE(compatible(Topology::torus(2, 2), RoutingAlgo::kTorusDor));
  EXPECT_TRUE(compatible(Topology::ring(4), RoutingAlgo::kRingShortest));
  EXPECT_FALSE(compatible(Topology::ring(4), RoutingAlgo::kOddEven));
}

TEST(Routing, DefaultAlgoPerTopology) {
  EXPECT_EQ(default_algo(Topology::mesh(2, 2)), RoutingAlgo::kXY);
  EXPECT_EQ(default_algo(Topology::torus(2, 2)), RoutingAlgo::kTorusDor);
  EXPECT_EQ(default_algo(Topology::ring(4)), RoutingAlgo::kRingShortest);
}

}  // namespace
}  // namespace sctm::noc
