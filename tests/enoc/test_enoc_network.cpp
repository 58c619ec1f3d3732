#include "enoc/enoc_network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sctm::enoc {
namespace {

using noc::Message;
using noc::MsgClass;
using noc::Topology;

Message make_msg(MsgId id, NodeId src, NodeId dst, std::uint32_t bytes,
                 MsgClass cls = MsgClass::kData) {
  Message m;
  m.id = id;
  m.src = src;
  m.dst = dst;
  m.size_bytes = bytes;
  m.cls = cls;
  return m;
}

EnocParams small_params() {
  EnocParams p;
  p.vnets = 2;
  p.vcs_per_vnet = 2;
  p.buffer_depth = 4;
  return p;
}

TEST(EnocNetwork, DeliversSingleMessage) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  EnocNetwork net(sim, "enoc", t, small_params());
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 15, 64));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 1u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.injected_count(), 1u);
  EXPECT_EQ(net.delivered_count(), 1u);
}

TEST(EnocNetwork, LatencyRespectsLowerBound) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  const auto p = small_params();
  EnocNetwork net(sim, "enoc", t, p);
  Message got;
  net.set_deliver_callback([&](const Message& m) { got = m; });
  net.inject(make_msg(1, 0, 15, 64));
  sim.run();
  // 6 hops, >=3 cycles router pipeline + 1 cycle link each, plus
  // serialization of 5 flits and injection/ejection overheads.
  const int hops = t.distance(0, 15);
  const Cycle min_bound = static_cast<Cycle>(hops) * (3 + 1);
  EXPECT_GE(got.latency(), min_bound);
  EXPECT_LT(got.latency(), min_bound + 40);
}

TEST(EnocNetwork, ShortMessageIsSingleFlit) {
  const auto p = small_params();
  EXPECT_EQ(p.flits_for(8), 1u);    // 8+8 header = 16 = 1 flit
  EXPECT_EQ(p.flits_for(64), 5u);   // 72 bytes -> 5 flits
  EXPECT_EQ(p.flits_for(0), 1u);
}

TEST(EnocNetwork, SelfMessageDelivered) {
  Simulator sim;
  const auto t = Topology::mesh(2, 2);
  EnocNetwork net(sim, "enoc", t, small_params());
  int n = 0;
  net.set_deliver_callback([&](const Message&) { ++n; });
  net.inject(make_msg(1, 1, 1, 32));
  sim.run();
  EXPECT_EQ(n, 1);
}

TEST(EnocNetwork, ManyMessagesAllDelivered) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  EnocNetwork net(sim, "enoc", t, small_params());
  int delivered = 0;
  net.set_deliver_callback([&](const Message&) { ++delivered; });
  MsgId id = 1;
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s != d) net.inject(make_msg(id++, s, d, 64));
    }
  }
  sim.run();
  EXPECT_EQ(delivered, 16 * 15);
  EXPECT_TRUE(net.idle());
}

TEST(EnocNetwork, MessagesArriveIntactAndAtRightNode) {
  Simulator sim;
  const auto t = Topology::mesh(3, 3);
  EnocNetwork net(sim, "enoc", t, small_params());
  std::map<MsgId, Message> got;
  net.set_deliver_callback([&](const Message& m) { got[m.id] = m; });
  net.inject(make_msg(10, 0, 8, 64, MsgClass::kData));
  net.inject(make_msg(11, 8, 0, 8, MsgClass::kRequest));
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[10].dst, 8);
  EXPECT_EQ(got[10].size_bytes, 64u);
  EXPECT_EQ(got[10].cls, MsgClass::kData);
  EXPECT_EQ(got[11].dst, 0);
}

TEST(EnocNetwork, FifoOrderPerSrcDstPairSameClass) {
  Simulator sim;
  const auto t = Topology::mesh(4, 1);
  EnocNetwork net(sim, "enoc", t, small_params());
  std::vector<MsgId> order;
  net.set_deliver_callback([&](const Message& m) { order.push_back(m.id); });
  for (MsgId i = 1; i <= 8; ++i) net.inject(make_msg(i, 0, 3, 64));
  sim.run();
  ASSERT_EQ(order.size(), 8u);
  // Wormhole + deterministic XY on a line: same-pair packets cannot
  // reorder... but they CAN use different VCs. Only head-of-line delivery
  // order of the *first* packet is guaranteed; check monotone arrival of
  // ids is not required. Instead assert all ids present.
  std::vector<MsgId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (MsgId i = 1; i <= 8; ++i) EXPECT_EQ(sorted[i - 1], i);
}

TEST(EnocNetwork, TorusDeliversAcrossWrapLinks) {
  Simulator sim;
  const auto t = Topology::torus(4, 4);
  EnocParams p = small_params();
  p.routing = noc::RoutingAlgo::kTorusDor;
  EnocNetwork net(sim, "enoc", t, p);
  int delivered = 0;
  net.set_deliver_callback([&](const Message&) { ++delivered; });
  // 0 -> 3 goes through the x wrap link (1 hop).
  net.inject(make_msg(1, 0, 3, 64));
  // 0 -> 12 through the y wrap (1 hop).
  net.inject(make_msg(2, 0, 12, 64));
  sim.run();
  EXPECT_EQ(delivered, 2);
}

TEST(EnocNetwork, RingDeliversBothDirections) {
  Simulator sim;
  const auto t = Topology::ring(8);
  EnocParams p = small_params();
  p.routing = noc::RoutingAlgo::kRingShortest;
  EnocNetwork net(sim, "enoc", t, p);
  int delivered = 0;
  net.set_deliver_callback([&](const Message&) { ++delivered; });
  net.inject(make_msg(1, 0, 2, 64));
  net.inject(make_msg(2, 0, 6, 64));
  net.inject(make_msg(3, 7, 1, 64));  // crosses the wrap
  sim.run();
  EXPECT_EQ(delivered, 3);
}

TEST(EnocNetwork, IncompatibleRoutingThrows) {
  Simulator sim;
  const auto t = Topology::torus(4, 4);
  EnocParams p = small_params();
  p.routing = noc::RoutingAlgo::kXY;
  EXPECT_THROW(EnocNetwork(sim, "enoc", t, p), std::invalid_argument);
}

TEST(EnocNetwork, DatelineRequiresEvenVcs) {
  Simulator sim;
  const auto t = Topology::torus(2, 2);
  EnocParams p = small_params();
  p.routing = noc::RoutingAlgo::kTorusDor;
  p.vcs_per_vnet = 3;
  EXPECT_THROW(EnocNetwork(sim, "enoc", t, p), std::invalid_argument);
}

TEST(EnocNetwork, AdaptiveRoutingStillDeliversAll) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  EnocParams p = small_params();
  p.routing = noc::RoutingAlgo::kOddEven;
  p.adaptive = true;
  EnocNetwork net(sim, "enoc", t, p);
  int delivered = 0;
  net.set_deliver_callback([&](const Message&) { ++delivered; });
  MsgId id = 1;
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s != d) net.inject(make_msg(id++, s, d, 64));
    }
  }
  sim.run();
  EXPECT_EQ(delivered, 240);
}

// A star hub with 300 leaf ports: forwards and credits on hub ports past 255
// must use the full port number (a byte-wide outbox port sends them to the
// wrong leaf).
TEST(EnocNetwork, WideStarHubUsesPortsBeyond255) {
  std::string text = "nodes 301\n";
  for (int i = 1; i <= 300; ++i) text += "edge 0 " + std::to_string(i) + "\n";
  const auto topo = Topology::from_text(text);
  EnocParams p = small_params();
  p.routing = noc::RoutingAlgo::kTable;
  Simulator sim;
  EnocNetwork net(sim, "enoc", topo, p);
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 1, 300, 64));
  net.inject(make_msg(2, 300, 1, 64));
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  for (const auto& m : got) {
    EXPECT_EQ(m.dst, m.id == 1 ? NodeId{300} : NodeId{1});
  }
  EXPECT_TRUE(net.idle());
}

// A message whose flit count does not fit the 32-bit flit counters is
// rejected at inject, naming its id and size, before anything is staged or
// counted.
TEST(EnocNetwork, InjectRejectsAFlitCountBeyond32Bits) {
  Simulator sim;
  EnocParams p = small_params();
  p.flit_bytes = 1;
  EnocNetwork net(sim, "enoc", Topology::mesh(2, 2), p);
  try {
    net.inject(make_msg(7, 0, 3, std::numeric_limits<std::uint32_t>::max()));
    ADD_FAILURE() << "a 4 GiB message of 1-byte flits was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("message 7 "), std::string::npos) << what;
    EXPECT_NE(what.find("4294967295 bytes"), std::string::npos) << what;
  }
  EXPECT_EQ(net.injected_count(), 0u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A flit hop and a credit return cost no kernel event: the wires land in the
// network's clock tick, so a lone message costs one event per active cycle.
TEST(EnocNetwork, HopsCostNoEventBeyondTheClock) {
  Simulator sim;
  EnocNetwork net(sim, "enoc", Topology::mesh(4, 4), small_params());
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 15, 4096));  // 257 flits over 6 hops
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_GT(net.active_cycles(), 257u);
  EXPECT_LE(sim.events_executed(), net.active_cycles() + 2);
}

TEST(EnocNetwork, StatsCountersPopulated) {
  Simulator sim;
  const auto t = Topology::mesh(2, 2);
  EnocNetwork net(sim, "enoc", t, small_params());
  net.inject(make_msg(1, 0, 3, 64));
  sim.run();
  EXPECT_GT(sim.stats().counter_value("enoc.r0.buffer_writes"), 0u);
  EXPECT_GT(sim.stats().counter_value("enoc.r0.sa_grants"), 0u);
  EXPECT_GT(net.active_cycles(), 0u);
}

}  // namespace
}  // namespace sctm::enoc
