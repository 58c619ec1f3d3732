#include "onoc/power.hpp"

#include <gtest/gtest.h>

namespace sctm::onoc {
namespace {

using noc::Topology;

OnocNetwork make_net(Simulator& sim, Arbitration arb) {
  return OnocNetwork(sim, "onoc", Topology::mesh(4, 4), {}, arb);
}

noc::Message msg(MsgId id, NodeId s, NodeId d, std::uint32_t bytes) {
  noc::Message m;
  m.id = id;
  m.src = s;
  m.dst = d;
  m.size_bytes = bytes;
  m.cls = noc::MsgClass::kData;
  return m;
}

TEST(OnocPower, StaticFloorWithoutTraffic) {
  Simulator sim;
  auto net = make_net(sim, Arbitration::kTokenRing);
  const auto e = compute_onoc_energy(net, 10000);
  EXPECT_GT(e.laser_pj, 0.0);
  EXPECT_GT(e.tuning_pj, 0.0);
  EXPECT_DOUBLE_EQ(e.dynamic_pj, 0.0);
  EXPECT_DOUBLE_EQ(e.ctrl_pj, 0.0);
}

TEST(OnocPower, DynamicScalesWithBytes) {
  Simulator sim;
  auto net = make_net(sim, Arbitration::kTokenRing);
  net.inject(msg(1, 0, 15, 1024));
  sim.run();
  const auto e1 = compute_onoc_energy(net, sim.now());
  EXPECT_GT(e1.dynamic_pj, 0.0);

  Simulator sim2;
  auto net2 = make_net(sim2, Arbitration::kTokenRing);
  net2.inject(msg(1, 0, 15, 1024));
  net2.inject(msg(2, 1, 14, 1024));
  sim2.run();
  const auto e2 = compute_onoc_energy(net2, sim2.now());
  EXPECT_NEAR(e2.dynamic_pj, 2.0 * e1.dynamic_pj, 1e-6);
}

TEST(OnocPower, ControlMeshChargedInSetupMode) {
  Simulator sim;
  auto net = make_net(sim, Arbitration::kPathSetup);
  net.inject(msg(1, 0, 15, 256));
  sim.run();
  const auto e = compute_onoc_energy(net, sim.now());
  EXPECT_GT(e.ctrl_pj, 0.0);
}

TEST(OnocPower, StaticDominatesAtLowUtilization) {
  Simulator sim;
  auto net = make_net(sim, Arbitration::kTokenRing);
  net.inject(msg(1, 0, 15, 64));
  sim.run();
  // One cache line over a window of 100k cycles: laser+tuning >> dynamic.
  const auto e = compute_onoc_energy(net, 100000);
  EXPECT_GT(e.laser_pj + e.tuning_pj, 100.0 * e.dynamic_pj);
}

TEST(OnocPower, WattsConversion) {
  OnocEnergyBreakdown e;
  e.laser_pj = 1e6;  // 1 uJ over 2e5 cycles at 2 GHz (100 us) = 10 mW
  EXPECT_NEAR(e.watts(200000, 2.0), 0.01, 1e-9);
}

TEST(OnocPower, BudgetInputsMirrorNetwork) {
  Simulator sim;
  auto net = make_net(sim, Arbitration::kTokenRing);
  const auto in = budget_inputs_for(net.params(), net.node_count());
  EXPECT_EQ(in.nodes, 16);
  EXPECT_EQ(in.channels_per_node, 15);
  EXPECT_EQ(in.wavelengths, net.params().wavelengths);
}

}  // namespace
}  // namespace sctm::onoc
