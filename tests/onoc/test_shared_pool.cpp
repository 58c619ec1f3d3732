#include <gtest/gtest.h>

#include "core/replay_session.hpp"
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

TEST(SharedPool, RejectsEmptyPool) {
  Simulator sim;
  EXPECT_THROW(
      OnocNetwork(sim, "onoc", Topology::mesh(4, 4), OnocParams{},
                  Arbitration::kSharedPool, {}, 0),
      std::invalid_argument);
}

TEST(SharedPool, SingleMessagePaysArbitrationRound) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kSharedPool, {}, 4);
  Message got;
  net.set_deliver_callback([&](const Message& m) { got = m; });
  net.inject(make_msg(1, 0, 15, 64));
  sim.run();
  // Half a token round (8 hops on 16 nodes) on top of zero-load.
  EXPECT_EQ(got.latency(), net.zero_load_latency(got) + 8);
}

TEST(SharedPool, ParallelismBoundedByPoolSize) {
  // Two channels, three concurrent large transfers between disjoint pairs:
  // exactly one must wait a full serialization behind the others.
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kSharedPool, {}, 2);
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 12, 640));
  net.inject(make_msg(2, 1, 13, 640));
  net.inject(make_msg(3, 2, 14, 640));
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  std::vector<Cycle> arrivals;
  for (const auto& m : got) arrivals.push_back(m.arrive_time);
  std::sort(arrivals.begin(), arrivals.end());
  const Cycle ser = net.params().ser_cycles(640);
  EXPECT_LT(arrivals[1], arrivals[0] + ser / 2);  // two run concurrently
  EXPECT_GE(arrivals[2], arrivals[0] + ser);      // the third queues
}

TEST(SharedPool, MoreChannelsMeanLowerLatencyUnderLoad) {
  auto mean_latency = [](int channels) {
    Simulator sim;
    const auto t = Topology::mesh(4, 4);
    OnocNetwork net(sim, "onoc", t, OnocParams{},
                    Arbitration::kSharedPool, {}, channels);
    noc::TrafficGenerator::Params tp;
    tp.injection_rate = 0.1;
    tp.warmup = 300;
    tp.measure = 3000;
    tp.seed = 51;
    noc::TrafficGenerator gen(sim, "gen", net, t, tp);
    gen.run_to_completion();
    return gen.latency().mean();
  };
  EXPECT_GT(mean_latency(2), mean_latency(16));
}

TEST(SharedPool, LosslessUnderLoad) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kSharedPool, {}, 4);
  noc::TrafficGenerator::Params tp;
  tp.injection_rate = 0.15;
  tp.warmup = 200;
  tp.measure = 2000;
  tp.seed = 52;
  noc::TrafficGenerator gen(sim, "gen", net, t, tp);
  gen.run_to_completion();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.injected_count(), net.delivered_count());
}

TEST(SharedPool, FixedPointBitExact) {
  using namespace core;
  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  // No NetKind names a shared pool, so the network is built directly.
  const noc::Topology topo = noc::Topology::mesh(4, 4);
  auto factory = [&](Simulator& sim) -> std::unique_ptr<noc::Network> {
    return std::make_unique<OnocNetwork>(sim, "net", topo, OnocParams{},
                                         Arbitration::kSharedPool,
                                         enoc::EnocParams{}, 4);
  };
  // Execution-driven capture over the same factory.
  Simulator sim;
  auto net = factory(sim);
  fullsys::CmpSystem cmp(sim, "cmp", *net, topo, {}, fullsys::build_app(app));
  cmp.run_to_completion();
  trace::Trace tr;
  tr.nodes = 16;
  tr.records = cmp.take_records();

  // The factory constructor exists for exactly this: a network no NetSpec
  // can name.
  const ReplayTrace replay_input(tr);
  ReplaySession session(replay_input, factory, {});
  const ReplayResult& rep = session.run();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < tr.records.size(); ++i) {
    if (rep.inject_time[i] != tr.records.inject[i] ||
        rep.arrive_time[i] != tr.records.arrive[i]) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace sctm::onoc
