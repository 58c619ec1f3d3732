#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "noc/network.hpp"

namespace sctm::noc {
namespace {

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

TEST(IdealNetwork, LatencyFormula) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  IdealNetwork::Params p{.base_latency = 3, .per_hop_latency = 2,
                         .bytes_per_cycle = 16};
  IdealNetwork net(sim, "net", t, p);
  const auto m = make_msg(1, 0, 15, 64);
  // hops=6, ser=4 -> 3 + 12 + 4 = 19.
  EXPECT_EQ(net.model_latency(m), 19u);
}

TEST(IdealNetwork, SerializationRoundsUp) {
  Simulator sim;
  const auto t = Topology::mesh(2, 2);
  IdealNetwork net(sim, "net", t, {});
  auto m = make_msg(1, 0, 1, 17);  // 17/16 -> 2 cycles
  EXPECT_EQ(net.model_latency(m), 2u + 1u + 2u);
}

TEST(IdealNetwork, DeliversAtModelLatency) {
  Simulator sim;
  const auto t = Topology::mesh(2, 2);
  IdealNetwork net(sim, "net", t, {});
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  const auto m = make_msg(7, 0, 3, 32);
  const Cycle expect = net.model_latency(m);
  net.inject(m);
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 7u);
  EXPECT_EQ(got[0].latency(), expect);
  EXPECT_EQ(got[0].arrive_time, expect);
}

TEST(IdealNetwork, TracksInFlightAndIdle) {
  Simulator sim;
  const auto t = Topology::mesh(2, 2);
  IdealNetwork net(sim, "net", t, {});
  EXPECT_TRUE(net.idle());
  net.inject(make_msg(1, 0, 3, 8));
  EXPECT_FALSE(net.idle());
  sim.run();
  EXPECT_TRUE(net.idle());
}

TEST(IdealNetwork, DeliversEveryClass) {
  Simulator sim;
  const auto t = Topology::mesh(2, 2);
  IdealNetwork net(sim, "net", t, {});
  net.inject(make_msg(1, 0, 3, 8, MsgClass::kRequest));
  net.inject(make_msg(2, 0, 3, 64, MsgClass::kData));
  sim.run();
  EXPECT_EQ(net.delivered_count(), 2u);
}

TEST(IdealNetwork, RejectsInvalidEndpoints) {
  Simulator sim;
  const auto t = Topology::mesh(2, 2);
  IdealNetwork net(sim, "net", t, {});
  EXPECT_THROW(net.inject(make_msg(1, 0, 9, 8)), std::logic_error);
  EXPECT_THROW(net.inject(make_msg(1, -1, 0, 8)), std::logic_error);
}

TEST(IdealNetwork, SelfMessageAllowed) {
  Simulator sim;
  const auto t = Topology::mesh(2, 2);
  IdealNetwork net(sim, "net", t, {});
  int delivered = 0;
  net.set_deliver_callback([&](const Message&) { ++delivered; });
  net.inject(make_msg(1, 2, 2, 8));
  sim.run();
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace sctm::noc
