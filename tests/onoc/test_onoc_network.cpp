#include "onoc/onoc_network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "noc/traffic.hpp"
#include "onoc/hybrid_network.hpp"
#include "tracestore/format.hpp"

namespace sctm::onoc {
namespace {

using noc::Message;
using noc::MsgClass;
using noc::Topology;

Message make_msg(MsgId id, NodeId src, NodeId dst, std::uint32_t bytes) {
  Message m;
  m.id = id;
  m.src = src;
  m.dst = dst;
  m.size_bytes = bytes;
  m.cls = MsgClass::kData;
  return m;
}

TEST(OnocNetwork, ChannelsKeyOffNodeCountNotLayout) {
  // The crossbar is keyed by node id, so any topology kind works as the tile
  // layout — here a ring, which the pre-graph implementation rejected.
  Simulator sim;
  OnocNetwork net(sim, "onoc", Topology::ring(8), {}, Arbitration::kTokenRing);
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 5, 64));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].dst, 5);
}

TEST(OnocNetwork, TokenModeDeliversSingleMessage) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kTokenRing);
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 15, 64));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(net.idle());
  EXPECT_GE(got[0].latency(), net.zero_load_latency(got[0]) - 1);
}

TEST(OnocNetwork, SetupModeDeliversSingleMessage) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kPathSetup);
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 15, 64));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(net.idle());
  // Setup adds two control traversals: latency well above zero-load.
  EXPECT_GT(got[0].latency(), net.zero_load_latency(got[0]));
}

TEST(OnocNetwork, ZeroLoadLatencyFormula) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocParams p;
  p.wavelengths = 16;          // 16 * 10 Gb/s / 8 / 2GHz = 10 B/cycle
  p.eo_latency = 2;
  p.oe_latency = 3;
  OnocNetwork net(sim, "onoc", t, p, Arbitration::kTokenRing);
  const auto m = make_msg(1, 0, 15, 100);  // ser = 10 cycles
  const Cycle tof = p.tof_cycles(t.distance(0, 15), t.width());
  EXPECT_EQ(net.zero_load_latency(m), 2u + 10u + tof + 3u);
}

TEST(OnocNetwork, SelfMessageSkipsArbitration) {
  Simulator sim;
  const auto t = Topology::mesh(2, 2);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kTokenRing);
  Message got;
  net.set_deliver_callback([&](const Message& m) { got = m; });
  net.inject(make_msg(1, 3, 3, 64));
  sim.run();
  EXPECT_EQ(got.latency(), net.zero_load_latency(got));
}

TEST(OnocNetwork, TokenContentionSerializesSameDestination) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kTokenRing);
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  // Three writers to node 15 at the same time: transfers must serialize.
  net.inject(make_msg(1, 0, 15, 640));
  net.inject(make_msg(2, 1, 15, 640));
  net.inject(make_msg(3, 2, 15, 640));
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  std::vector<Cycle> arrivals;
  for (const auto& m : got) arrivals.push_back(m.arrive_time);
  std::sort(arrivals.begin(), arrivals.end());
  const Cycle ser = net.params().ser_cycles(640);
  EXPECT_GE(arrivals[1], arrivals[0] + ser);
  EXPECT_GE(arrivals[2], arrivals[1] + ser);
}

TEST(OnocNetwork, SetupContentionSerializesSameDestination) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kPathSetup);
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 15, 640));
  net.inject(make_msg(2, 1, 15, 640));
  net.inject(make_msg(3, 2, 15, 640));
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  std::vector<Cycle> arrivals;
  for (const auto& m : got) arrivals.push_back(m.arrive_time);
  std::sort(arrivals.begin(), arrivals.end());
  const Cycle ser = net.params().ser_cycles(640);
  EXPECT_GE(arrivals[1], arrivals[0] + ser);
  EXPECT_GE(arrivals[2], arrivals[1] + ser);
}

TEST(OnocNetwork, DistinctDestinationsProceedInParallel) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kTokenRing);
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 12, 640));
  net.inject(make_msg(2, 1, 13, 640));
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  // No cross-channel interference: both near zero-load latency.
  for (const auto& m : got) {
    EXPECT_LE(m.latency(), net.zero_load_latency(m) + 16);
  }
}

TEST(OnocNetwork, LargeTransferFasterThanEnocWouldBe) {
  // ONOC bandwidth at 16 lambdas = 10 B/cycle; a 4 KiB transfer finishes in
  // ~410 cycles + overheads, far beyond what a 16 B/flit wormhole mesh does
  // per hop chain — sanity-check the bandwidth math only.
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kTokenRing);
  Message got;
  net.set_deliver_callback([&](const Message& m) { got = m; });
  net.inject(make_msg(1, 0, 15, 4096));
  sim.run();
  const Cycle ser = net.params().ser_cycles(4096);
  EXPECT_NEAR(static_cast<double>(got.latency()), static_cast<double>(ser),
              30.0);
}

TEST(OnocNetwork, LosslessUnderSyntheticLoadTokenMode) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kTokenRing);
  noc::TrafficGenerator::Params tp;
  tp.injection_rate = 0.2;
  tp.warmup = 200;
  tp.measure = 2000;
  tp.seed = 11;
  noc::TrafficGenerator gen(sim, "gen", net, t, tp);
  gen.run_to_completion();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.injected_count(), net.delivered_count());
}

TEST(OnocNetwork, LosslessUnderSyntheticLoadSetupMode) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kPathSetup);
  noc::TrafficGenerator::Params tp;
  tp.injection_rate = 0.15;
  tp.warmup = 200;
  tp.measure = 2000;
  tp.seed = 12;
  noc::TrafficGenerator gen(sim, "gen", net, t, tp);
  gen.run_to_completion();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.injected_count(), net.delivered_count());
}

TEST(OnocNetwork, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    const auto t = Topology::mesh(4, 4);
    OnocNetwork net(sim, "onoc", t, {}, Arbitration::kPathSetup);
    noc::TrafficGenerator::Params tp;
    tp.injection_rate = 0.1;
    tp.warmup = 100;
    tp.measure = 1000;
    tp.seed = 21;
    noc::TrafficGenerator gen(sim, "gen", net, t, tp);
    gen.run_to_completion();
    return std::pair{gen.latency().mean(), sim.now()};
  };
  EXPECT_EQ(run(), run());
}

TEST(OnocNetwork, MoreWavelengthsCutSerialization) {
  OnocParams a;
  a.wavelengths = 8;
  OnocParams b;
  b.wavelengths = 64;
  EXPECT_GT(a.ser_cycles(4096), b.ser_cycles(4096));
  EXPECT_NEAR(static_cast<double>(a.ser_cycles(4096)),
              8.0 * static_cast<double>(b.ser_cycles(4096)), 8.0);
}

TEST(OnocNetwork, DataBytesAccounted) {
  Simulator sim;
  const auto t = Topology::mesh(2, 2);
  OnocNetwork net(sim, "onoc", t, {}, Arbitration::kTokenRing);
  net.inject(make_msg(1, 0, 3, 100));
  net.inject(make_msg(2, 1, 2, 50));
  sim.run();
  EXPECT_EQ(net.data_bytes(), 150u);
}

// --- Per-cycle arbitration flush under contention ---------------------------

enum class Plane { kToken, kSwmr, kHybrid };

const char* name_of(Plane p) {
  switch (p) {
    case Plane::kToken: return "token";
    case Plane::kSwmr: return "swmr";
    case Plane::kHybrid: return "hybrid";
  }
  return "?";
}

struct FlushRun {
  std::uint64_t events = 0;
  std::string stats_report;
  std::vector<std::pair<MsgId, Cycle>> deliveries;
};

/// Contended workload: staggered bursts on an 8x8 mesh where many writers
/// target few receive channels in the same cycle (token mode arbitrates per
/// dst, SWMR per src — the burst pattern loads both keyings; the hybrid's
/// size mix steers part of each burst to each plane). `chain` adds a
/// delivery-triggered same-cycle reply inject, which must re-arm the
/// late-band arbitration flush within the delivery cycle.
FlushRun run_contended(Plane which, bool chain) {
  Simulator sim;
  const auto topo = Topology::mesh(8, 8);
  std::unique_ptr<noc::Network> net;
  switch (which) {
    case Plane::kToken:
      net = std::make_unique<OnocNetwork>(sim, "onoc", topo, OnocParams{},
                                          Arbitration::kTokenRing);
      break;
    case Plane::kSwmr:
      net = std::make_unique<OnocNetwork>(sim, "onoc", topo, OnocParams{},
                                          Arbitration::kSwmr);
      break;
    case Plane::kHybrid:
      net = std::make_unique<HybridNetwork>(sim, "hybrid", topo,
                                            enoc::EnocParams{}, OnocParams{},
                                            HybridParams{});
      break;
  }
  FlushRun out;
  MsgId next = 1;
  MsgId reply_next = 100000;  // distinct id space: one reply per original
  net->set_deliver_callback([&](const Message& m) {
    out.deliveries.emplace_back(m.id, sim.now());
    if (chain && m.id < 100000) {
      net->inject(make_msg(reply_next++, m.dst, m.src, 48));
    }
  });
  for (int burst = 0; burst < 6; ++burst) {
    sim.schedule_in(static_cast<Cycle>(burst * 50), [&net, &next, burst] {
      for (int i = 0; i < 16; ++i) {
        // Many writers, four hot receive channels; a few hot sources too.
        const auto src = static_cast<NodeId>((burst * 11 + i * 3) % 64);
        auto dst = static_cast<NodeId>((burst + i % 4) * 9 % 64);
        if (dst == src) dst = (dst + 1) % 64;
        net->inject(make_msg(next++, src, dst, 32 + 24 * (i % 4)));
      }
    });
  }
  sim.run();
  out.events = sim.events_executed();
  out.stats_report = sim.stats().report();
  return out;
}

/// FNV-1a over what the run simulates: the delivery schedule and the full
/// stat report. The kernel event count, which measures how the kernel got
/// there, is pinned apart, as the replay pins do.
std::uint64_t schedule_hash(const FlushRun& r) {
  tracestore::Fnv1a64 h;
  for (const auto& [id, at] : r.deliveries) {
    h.update_scalar(id);
    h.update_scalar(at);
  }
  h.update(r.stats_report.data(), r.stats_report.size());
  return h.value();
}

struct FlushPin {
  std::uint64_t hash;
  std::uint64_t events;
};

// Schedule hashes computed at commit 507a62c, whose ENoC still scheduled an
// event per link traversal and per credit return; the hybrid's event counts
// are those of the ENoC plane that lands its wires in its clock tick.
// Indexed by Plane; {plain, chained}.
constexpr FlushPin kFlushPins[3][2] = {
    {{0x856d34a6ef453a6dull, 204}, {0x1a054a242688e937ull, 484}},  // token
    {{0x25f6a0ee9a5ea9edull, 204}, {0x9173785d18039648ull, 420}},  // swmr
    {{0x62e7123f96d34939ull, 245}, {0xfde18c323dba1fd7ull, 602}},  // hybrid
};

void expect_pinned(const FlushRun& run, const FlushPin& pin) {
  const std::uint64_t hash = schedule_hash(run);
  EXPECT_EQ(hash, pin.hash) << std::hex << "hash 0x" << hash;
  EXPECT_EQ(run.events, pin.events);
}

class ArbitrationFlush : public ::testing::TestWithParam<Plane> {};

TEST_P(ArbitrationFlush, ContendedBurstsMatchPinnedSchedule) {
  const FlushRun run = run_contended(GetParam(), /*chain=*/false);
  ASSERT_EQ(run.deliveries.size(), 96u);
  expect_pinned(run, kFlushPins[static_cast<int>(GetParam())][0]);
}

TEST_P(ArbitrationFlush, DeliveryChainedInjectsReArmTheFlush) {
  // A reply injected from the deliver callback queues arbitration in the
  // delivery cycle; the re-armed late-band flush must still serve it in that
  // cycle, and every reply must arrive.
  const FlushRun run = run_contended(GetParam(), /*chain=*/true);
  ASSERT_EQ(run.deliveries.size(), 192u);  // originals + replies
  expect_pinned(run, kFlushPins[static_cast<int>(GetParam())][1]);
}

INSTANTIATE_TEST_SUITE_P(OpticalPlanes, ArbitrationFlush,
                         ::testing::Values(Plane::kToken, Plane::kSwmr,
                                           Plane::kHybrid),
                         [](const auto& info) {
                           return std::string(name_of(info.param));
                         });

}  // namespace
}  // namespace sctm::onoc
