// Quiescence regression tests for the activity scoreboard.
//
// Two properties: (1) cost — on a sparse workload the kernel's work scales
// with *active* cycles and *active* routers, not with wall-clock cycles or
// node count; (2) determinism — draining the active set in ascending
// router-id order is bit-identical to the seed policy of ticking every
// router every cycle (same activity hash, same delivered timestamps, same
// per-cycle arbitration history), including when a delivery re-activates a
// router during the cycle's outbox drain.
#include "enoc/enoc_network.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace sctm::enoc {
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

EnocParams small_params() {
  EnocParams p;
  p.vnets = 2;
  p.vcs_per_vnet = 2;
  p.buffer_depth = 4;
  return p;
}

TEST(Quiescence, SparseWorkloadCostScalesWithActiveCyclesNotWallClock) {
  // Two messages separated by a 100k-cycle idle gap on a 256-router mesh.
  Simulator sim;
  const auto topo = Topology::mesh(16, 16);
  EnocNetwork net(sim, "enoc", topo, small_params());
  std::vector<Cycle> delivered_at;
  net.set_deliver_callback(
      [&](const Message&) { delivered_at.push_back(sim.now()); });

  constexpr Cycle kGap = 100000;
  net.inject(make_msg(1, 0, 255, 64));
  sim.schedule_in(kGap, [&] { net.inject(make_msg(2, 255, 0, 64)); });
  sim.run();

  ASSERT_EQ(delivered_at.size(), 2u);
  EXPECT_GT(delivered_at[1], kGap);

  // The clock self-gates: the idle gap costs nothing. Each message is in
  // flight for ~hops * (pipeline + link) + serialization cycles, so the
  // active-cycle count is a few hundred — not 100k.
  EXPECT_LT(net.active_cycles(), 1000u);

  // The scoreboard gates router work: only routers currently holding flits
  // tick. A wormhole message occupies O(flits + pipeline depth) routers at
  // once, so total ticks are a small multiple of active cycles — nowhere
  // near node_count() per active cycle, let alone per wall cycle.
  EXPECT_LT(net.router_ticks(),
            net.active_cycles() * 32u);  // << 256 per active cycle
  EXPECT_LT(net.router_ticks(),
            static_cast<std::uint64_t>(net.node_count()) *
                net.active_cycles() / 4u);

  // Event count likewise tracks activity (one clock tick per running cycle;
  // flit hops and credits land inside it), not the wall-clock span.
  EXPECT_LT(sim.events_executed(), 20000u);
}

struct WorkloadResult {
  std::uint64_t activity_hash = 0;
  std::uint64_t router_ticks = 0;
  std::uint64_t events = 0;
  std::vector<std::pair<MsgId, Cycle>> deliveries;
};

/// A contended deterministic workload: staggered all-to-few bursts on an
/// 8x8 mesh, enough overlap to exercise credit stalls, VC contention and
/// multi-flit wormhole interleaving. `chain` adds a delivery-triggered
/// same-cycle reply inject — the drain-time activation path that the
/// clear-before-drain ordering rule exists for.
WorkloadResult run_workload(bool exhaustive, bool chain = false) {
  Simulator sim;
  const auto topo = Topology::mesh(8, 8);
  EnocNetwork net(sim, "enoc", topo, small_params());
  net.set_exhaustive_tick_for_test(exhaustive);
  WorkloadResult out;
  MsgId reply_next = 100000;  // distinct id space: one reply per original
  net.set_deliver_callback([&](const Message& m) {
    out.deliveries.emplace_back(m.id, sim.now());
    if (chain && m.id < 100000) {
      // Same-cycle reply from the delivering node: activates a router while
      // the drain is running, after the scan cleared its idle bit.
      net.inject(make_msg(reply_next++, m.dst, m.src, 32));
    }
  });
  MsgId next = 1;
  for (int burst = 0; burst < 8; ++burst) {
    sim.schedule_in(static_cast<Cycle>(burst * 40), [&net, &next, burst] {
      for (int i = 0; i < 12; ++i) {
        const auto src = static_cast<NodeId>((burst * 13 + i * 5) % 64);
        auto dst = static_cast<NodeId>((i * 17 + burst * 7 + 3) % 64);
        if (dst == src) dst = (dst + 1) % 64;
        net.inject(make_msg(next++, src, dst, 64 + 32 * (i % 3)));
      }
    });
  }
  sim.run();
  out.activity_hash = net.activity_hash();
  out.router_ticks = net.router_ticks();
  out.events = sim.events_executed();
  return out;
}

TEST(Quiescence, ScoreboardIsBitIdenticalToExhaustiveTicking) {
  const WorkloadResult sb = run_workload(/*exhaustive=*/false);
  const WorkloadResult ex = run_workload(/*exhaustive=*/true);

  // Same flits moved through the same ports on the same cycles: the
  // order-sensitive activity hash and every delivery (id, timestamp) match
  // the seed scheduling policy exactly.
  ASSERT_EQ(sb.deliveries.size(), 96u);
  EXPECT_EQ(sb.activity_hash, ex.activity_hash);
  EXPECT_EQ(sb.deliveries, ex.deliveries);

  // ...while doing strictly less router work.
  EXPECT_LT(sb.router_ticks, ex.router_ticks);
}

TEST(Quiescence, DrainTimeActivationsSurviveScoreboardClears) {
  // Regression for the drain ordering rule: idle routers are cleared from the
  // scoreboard before the outbox drain, so a router activated by a
  // drain-time delivery (ejection -> deliver -> same-cycle reply inject)
  // keeps its active bit. If the order were reversed, the reply's source
  // router would be cleared and its flits stranded — the run would either
  // deadlock (caught by the suite timeout) or lose deliveries.
  const WorkloadResult sb = run_workload(/*exhaustive=*/false, /*chain=*/true);
  ASSERT_EQ(sb.deliveries.size(), 192u);  // 96 originals + 96 replies
  const WorkloadResult ex = run_workload(/*exhaustive=*/true, /*chain=*/true);
  EXPECT_EQ(sb.activity_hash, ex.activity_hash);
  EXPECT_EQ(sb.deliveries, ex.deliveries);
}

TEST(Quiescence, ScoreboardRunIsSelfDeterministic) {
  const WorkloadResult a = run_workload(/*exhaustive=*/false);
  const WorkloadResult b = run_workload(/*exhaustive=*/false);
  EXPECT_EQ(a.activity_hash, b.activity_hash);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.router_ticks, b.router_ticks);
  EXPECT_EQ(a.events, b.events);
}

}  // namespace
}  // namespace sctm::enoc
