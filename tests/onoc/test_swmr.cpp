#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "noc/traffic.hpp"
#include "onoc/onoc_network.hpp"

namespace sctm::onoc {
namespace {

using noc::Message;
using noc::Topology;

Message make_msg(MsgId id, NodeId src, NodeId dst, std::uint32_t bytes) {
  Message m;
  m.id = id;
  m.src = src;
  m.dst = dst;
  m.size_bytes = bytes;
  m.cls = noc::MsgClass::kData;
  return m;
}

TEST(Swmr, SingleMessageAtZeroLoadLatency) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kSwmr);
  Message got;
  net.set_deliver_callback([&](const Message& m) { got = m; });
  net.inject(make_msg(1, 0, 15, 64));
  sim.run();
  EXPECT_EQ(got.latency(), net.zero_load_latency(got));
}

TEST(Swmr, SameSourceSerializes) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kSwmr);
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  // Two large messages from node 0 to distinct receivers: the shared source
  // channel forces serialization even though the receivers differ.
  net.inject(make_msg(1, 0, 12, 640));
  net.inject(make_msg(2, 0, 13, 640));
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  const Cycle ser = net.params().ser_cycles(640);
  const Cycle a0 = std::min(got[0].arrive_time, got[1].arrive_time);
  const Cycle a1 = std::max(got[0].arrive_time, got[1].arrive_time);
  EXPECT_GE(a1, a0 + ser);
}

TEST(Swmr, DifferentSourcesToSameDestinationProceedInParallel) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kSwmr);
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  // The MWSR bottleneck case is free under SWMR (modeled receivers are
  // contention-free).
  net.inject(make_msg(1, 0, 15, 640));
  net.inject(make_msg(2, 1, 15, 640));
  net.inject(make_msg(3, 2, 15, 640));
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  for (const auto& m : got) {
    EXPECT_LE(m.latency(), net.zero_load_latency(m) + 2);
  }
}

TEST(Swmr, LosslessUnderSyntheticLoad) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kSwmr);
  noc::TrafficGenerator::Params tp;
  tp.injection_rate = 0.2;
  tp.warmup = 200;
  tp.measure = 2000;
  tp.seed = 41;
  noc::TrafficGenerator gen(sim, "gen", net, t, tp);
  gen.run_to_completion();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.injected_count(), net.delivered_count());
}

TEST(Swmr, FixedPointThroughDriver) {
  using namespace core;
  fullsys::AppParams app;
  app.name = "sort";
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  NetSpec spec;
  spec.kind = NetKind::kOnocSwmr;
  const auto exec = run_execution(app, spec, {});
  const auto rep = run_replay(ReplayTrace(exec.trace), spec, {});
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < exec.trace.records.size(); ++i) {
    if (rep.result.inject_time[i] != exec.trace.records.inject[i] ||
        rep.result.arrive_time[i] != exec.trace.records.arrive[i]) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Swmr, BeatsTokenOnReceiverHotspot) {
  // The scheme's raison d'etre: fan-in to one node has no channel conflict.
  auto hotspot_latency = [](Arbitration arb) {
    Simulator sim;
    const auto t = Topology::mesh(4, 4);
    OnocNetwork net(sim, "onoc", t, {}, arb);
    noc::TrafficGenerator::Params tp;
    tp.pattern = noc::TrafficPattern::kHotspot;
    tp.hotspot_fraction = 0.6;
    tp.injection_rate = 0.08;
    tp.warmup = 300;
    tp.measure = 3000;
    tp.seed = 43;
    noc::TrafficGenerator gen(sim, "gen", net, t, tp);
    gen.run_to_completion();
    return gen.latency().mean();
  };
  EXPECT_LT(hotspot_latency(Arbitration::kSwmr),
            hotspot_latency(Arbitration::kTokenRing));
}

}  // namespace
}  // namespace sctm::onoc
