// Property-style sweeps: lossless delivery, determinism, and stability under
// load across topologies / routings / loads (parameterized gtest).
#include <gtest/gtest.h>

#include <tuple>

#include "enoc/enoc_network.hpp"
#include "noc/traffic.hpp"

namespace sctm::enoc {
namespace {

using noc::Topology;
using noc::TrafficPattern;

struct Scenario {
  const char* name;
  Topology topo;
  noc::RoutingAlgo algo;
  TrafficPattern pattern;
  double rate;
};

// gtest's default byte dump would print the `name` pointer, which moves with
// address-space randomization and so renames the CTest cases on every build.
void PrintTo(const Scenario& sc, std::ostream* os) { *os << sc.name; }

class EnocLoadSweep : public ::testing::TestWithParam<Scenario> {};

TEST_P(EnocLoadSweep, LosslessAndDrains) {
  const auto& sc = GetParam();
  Simulator sim;
  EnocParams p;
  p.routing = sc.algo;
  EnocNetwork net(sim, "enoc", sc.topo, p);
  noc::TrafficGenerator::Params tp;
  tp.pattern = sc.pattern;
  tp.injection_rate = sc.rate;
  tp.warmup = 200;
  tp.measure = 2000;
  tp.seed = 1234;
  noc::TrafficGenerator gen(sim, "gen", net, sc.topo, tp);
  gen.run_to_completion();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.injected_count(), net.delivered_count())
      << "lost packets in " << sc.name;
  EXPECT_GT(gen.measured_delivered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnocLoadSweep,
    ::testing::Values(
        Scenario{"mesh_xy_uniform_low", Topology::mesh(4, 4),
                 noc::RoutingAlgo::kXY, TrafficPattern::kUniform, 0.05},
        Scenario{"mesh_xy_uniform_high", Topology::mesh(4, 4),
                 noc::RoutingAlgo::kXY, TrafficPattern::kUniform, 0.30},
        Scenario{"mesh_xy_transpose", Topology::mesh(4, 4),
                 noc::RoutingAlgo::kXY, TrafficPattern::kTranspose, 0.20},
        Scenario{"mesh_xy_hotspot", Topology::mesh(4, 4),
                 noc::RoutingAlgo::kXY, TrafficPattern::kHotspot, 0.10},
        Scenario{"mesh_yx_uniform", Topology::mesh(4, 4),
                 noc::RoutingAlgo::kYX, TrafficPattern::kUniform, 0.15},
        Scenario{"mesh_oddeven_uniform", Topology::mesh(4, 4),
                 noc::RoutingAlgo::kOddEven, TrafficPattern::kUniform, 0.15},
        Scenario{"mesh_oddeven_tornado", Topology::mesh(4, 4),
                 noc::RoutingAlgo::kOddEven, TrafficPattern::kTornado, 0.15},
        Scenario{"mesh8_xy_bitcomp", Topology::mesh(8, 8),
                 noc::RoutingAlgo::kXY, TrafficPattern::kBitComplement, 0.08},
        Scenario{"torus_dor_uniform", Topology::torus(4, 4),
                 noc::RoutingAlgo::kTorusDor, TrafficPattern::kUniform, 0.20},
        Scenario{"torus_dor_tornado", Topology::torus(4, 4),
                 noc::RoutingAlgo::kTorusDor, TrafficPattern::kTornado, 0.20},
        Scenario{"ring_shortest_uniform", Topology::ring(8),
                 noc::RoutingAlgo::kRingShortest, TrafficPattern::kUniform,
                 0.10},
        Scenario{"ring_neighbor", Topology::ring(8),
                 noc::RoutingAlgo::kRingShortest, TrafficPattern::kNeighbor,
                 0.30}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

TEST(EnocDeterminism, IdenticalRunsBitIdentical) {
  auto run = [] {
    Simulator sim;
    const auto topo = Topology::mesh(4, 4);
    EnocParams p;
    EnocNetwork net(sim, "enoc", topo, p);
    noc::TrafficGenerator::Params tp;
    tp.injection_rate = 0.2;
    tp.warmup = 100;
    tp.measure = 1500;
    tp.seed = 77;
    noc::TrafficGenerator gen(sim, "gen", net, topo, tp);
    gen.run_to_completion();
    return std::tuple{net.delivered_count(), gen.latency().mean(),
                      gen.latency().percentile(0.99), sim.now()};
  };
  EXPECT_EQ(run(), run());
}

TEST(EnocBehaviour, LatencyGrowsWithLoad) {
  auto mean_latency = [](double rate) {
    Simulator sim;
    const auto topo = Topology::mesh(4, 4);
    EnocNetwork net(sim, "enoc", topo, EnocParams{});
    noc::TrafficGenerator::Params tp;
    tp.injection_rate = rate;
    tp.warmup = 300;
    tp.measure = 3000;
    tp.seed = 5;
    noc::TrafficGenerator gen(sim, "gen", net, topo, tp);
    gen.run_to_completion();
    return gen.latency().mean();
  };
  const double lo = mean_latency(0.02);
  const double hi = mean_latency(0.25);
  EXPECT_GT(hi, lo * 1.1) << "congestion should raise latency";
}

TEST(EnocBehaviour, SaturationThroughputBelowOffered) {
  Simulator sim;
  const auto topo = Topology::mesh(4, 4);
  EnocNetwork net(sim, "enoc", topo, EnocParams{});
  noc::TrafficGenerator::Params tp;
  tp.injection_rate = 0.9;  // far beyond saturation for 5-flit packets
  tp.warmup = 200;
  tp.measure = 2000;
  tp.seed = 6;
  noc::TrafficGenerator gen(sim, "gen", net, topo, tp);
  gen.run_to_completion();
  EXPECT_LT(gen.throughput(), 0.5);
  // Still lossless even past saturation.
  EXPECT_EQ(net.injected_count(), net.delivered_count());
}

TEST(EnocBehaviour, BiggerMeshHasLongerUniformLatency) {
  auto mean_latency = [](int side) {
    Simulator sim;
    const auto topo = Topology::mesh(side, side);
    EnocNetwork net(sim, "enoc", topo, EnocParams{});
    noc::TrafficGenerator::Params tp;
    tp.injection_rate = 0.02;
    tp.warmup = 200;
    tp.measure = 2000;
    tp.seed = 8;
    noc::TrafficGenerator gen(sim, "gen", net, topo, tp);
    gen.run_to_completion();
    return gen.latency().mean();
  };
  EXPECT_GT(mean_latency(8), mean_latency(4));
}

}  // namespace
}  // namespace sctm::enoc
