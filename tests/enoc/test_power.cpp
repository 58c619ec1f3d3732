#include "enoc/power.hpp"

#include <gtest/gtest.h>

#include <string>

#include "enoc/enoc_network.hpp"
#include "noc/traffic.hpp"

namespace sctm::enoc {
namespace {

TEST(EnocPower, ZeroActivityOnlyLeaks) {
  const auto e = compute_enoc_energy(RouterOps{}, 16, 1000, {});
  EXPECT_DOUBLE_EQ(e.buffer_pj, 0.0);
  EXPECT_DOUBLE_EQ(e.link_pj, 0.0);
  EXPECT_GT(e.static_pj, 0.0);
  EXPECT_DOUBLE_EQ(e.total_pj(), e.static_pj);
}

TEST(EnocPower, CountsScaleEnergy) {
  RouterOps ops;
  ops.buffer_writes = 100;
  ops.buffer_reads = 100;
  ops.xbar_traversals = 50;
  ops.link_traversals = 50;
  ops.sa_grants = 50;
  EnocEnergyParams p;
  const auto e = compute_enoc_energy(ops, 2, 0, p);
  EXPECT_NEAR(e.buffer_pj, 100 * p.buffer_write_pj + 100 * p.buffer_read_pj,
              1e-9);
  EXPECT_NEAR(e.xbar_pj, 50 * p.xbar_traversal_pj, 1e-9);
  EXPECT_NEAR(e.link_pj, 50 * p.link_traversal_pj, 1e-9);
  EXPECT_NEAR(e.arbiter_pj, 50 * p.arbitration_pj, 1e-9);
  EXPECT_DOUBLE_EQ(e.static_pj, 0.0);
}

TEST(EnocPower, WattsConversion) {
  EnergyBreakdown e;
  e.link_pj = 2000.0;  // 2 nJ over 1000 cycles at 2 GHz = 500 ns -> 4 mW
  EXPECT_NEAR(e.watts(1000, 2.0), 0.004, 1e-9);
  EXPECT_DOUBLE_EQ(e.watts(0, 2.0), 0.0);
}

TEST(EnocPower, EndToEndFromSimulation) {
  Simulator sim;
  const auto topo = noc::Topology::mesh(4, 4);
  EnocNetwork net(sim, "enoc", topo, EnocParams{});
  noc::TrafficGenerator::Params tp;
  tp.injection_rate = 0.1;
  tp.warmup = 100;
  tp.measure = 1000;
  noc::TrafficGenerator gen(sim, "gen", net, topo, tp);
  gen.run_to_completion();
  // The typed sum reads the counters every router registers.
  const auto registered = [&](const char* op) {
    std::uint64_t sum = 0;
    for (NodeId n = 0; n < topo.node_count(); ++n) {
      sum += sim.stats().counter_value("enoc.r" + std::to_string(n) + "." + op);
    }
    return sum;
  };
  const RouterOps ops = net.router_ops();
  EXPECT_EQ(ops.buffer_writes, registered("buffer_writes"));
  EXPECT_EQ(ops.buffer_reads, registered("buffer_reads"));
  EXPECT_EQ(ops.xbar_traversals, registered("xbar_traversals"));
  EXPECT_EQ(ops.link_traversals, registered("link_traversals"));
  EXPECT_EQ(ops.sa_grants, registered("sa_grants"));
  EXPECT_EQ(ops.va_grants, registered("va_grants"));
  const auto e = compute_enoc_energy(net);
  EXPECT_GT(e.buffer_pj, 0.0);
  EXPECT_GT(e.link_pj, 0.0);
  EXPECT_GT(e.xbar_pj, 0.0);
  EXPECT_GT(e.static_pj, 0.0);
  // More traffic -> more dynamic energy.
  Simulator sim2;
  EnocNetwork net2(sim2, "enoc", topo, EnocParams{});
  noc::TrafficGenerator::Params tp2 = tp;
  tp2.injection_rate = 0.3;
  noc::TrafficGenerator gen2(sim2, "gen", net2, topo, tp2);
  gen2.run_to_completion();
  const auto e2 = compute_enoc_energy(net2);
  EXPECT_GT(e2.buffer_pj + e2.link_pj, e.buffer_pj + e.link_pj);
}

}  // namespace
}  // namespace sctm::enoc
