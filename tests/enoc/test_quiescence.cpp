// Quiescence regression tests for the activity scoreboard.
//
// Two properties: (1) cost — on a sparse workload the kernel's work scales
// with *active* cycles and *active* routers, not with wall-clock cycles or
// node count; (2) determinism — draining the active set in ascending
// router-id order is bit-identical to the seed policy of ticking every
// router every cycle (same activity hash, same delivered timestamps, same
// per-cycle arbitration history), including when a delivery inside a
// router's tick re-activates a router the scan has already passed, or
// activates an idle router it has yet to reach.
#include "enoc/enoc_network.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "tracestore/format.hpp"

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
  /// Replies injected at a router that held no work and has a higher id
  /// than the router whose ejection delivered the original.
  int replies_at_idle_higher_router = 0;
};

/// FNV-1a over the (id, cycle) delivery list.
std::uint64_t delivery_hash(const WorkloadResult& r) {
  tracestore::Fnv1a64 h;
  for (const auto& [id, at] : r.deliveries) {
    h.update_scalar(static_cast<std::uint64_t>(id));
    h.update_scalar(static_cast<std::uint64_t>(at));
  }
  return h.value();
}

/// Who answers each original message with a same-cycle reply, injected from
/// inside the delivery callback (which runs inside the ejecting router's
/// tick).
enum class Reply {
  kNone,
  /// The delivering node: the ejecting router re-activates itself.
  kFromDestination,
  /// Originals stay among nodes 0-31 and node 63 - dst replies: a router
  /// with a higher id than the ejecting one, often idle, so the scan reaches
  /// it after the activation in the same cycle.
  kFromMirror,
};

/// A contended deterministic workload: staggered all-to-few bursts on an
/// 8x8 mesh, enough overlap to exercise credit stalls, VC contention and
/// multi-flit wormhole interleaving, with optional delivery-triggered
/// same-cycle replies.
WorkloadResult run_workload(bool exhaustive, Reply reply = Reply::kNone) {
  Simulator sim;
  const auto topo = Topology::mesh(8, 8);
  EnocNetwork net(sim, "enoc", topo, small_params());
  net.set_exhaustive_tick_for_test(exhaustive);
  WorkloadResult out;
  MsgId reply_next = 100000;  // distinct id space: one reply per original
  net.set_deliver_callback([&](const Message& m) {
    out.deliveries.emplace_back(m.id, sim.now());
    if (reply == Reply::kNone || m.id >= 100000) return;
    const NodeId from =
        reply == Reply::kFromDestination ? m.dst : 63 - m.dst;
    if (from > m.dst && !net.router(from).has_work()) {
      ++out.replies_at_idle_higher_router;
    }
    net.inject(make_msg(reply_next++, from, m.src, 32));
  });
  const int span = reply == Reply::kFromMirror ? 32 : 64;
  MsgId next = 1;
  for (int burst = 0; burst < 8; ++burst) {
    sim.schedule_in(static_cast<Cycle>(burst * 40), [&net, &next, burst,
                                                     span] {
      for (int i = 0; i < 12; ++i) {
        const auto src = static_cast<NodeId>((burst * 13 + i * 5) % span);
        auto dst = static_cast<NodeId>((i * 17 + burst * 7 + 3) % span);
        if (dst == src) dst = (dst + 1) % span;
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

TEST(Quiescence, TickTimeActivationsSurviveScoreboardClears) {
  // A router's ejection delivers inside its tick, and the delivery callback
  // may inject a reply at once (ejection -> deliver -> same-cycle reply
  // inject). The scan clears a router's bit only right after that router's
  // own tick, so an activation of a router it has already passed keeps its
  // bit. Were bits cleared after the scan instead, the reply's source
  // router would be cleared and its flits stranded: the run would either
  // deadlock (caught by the suite timeout) or lose deliveries. The hashes
  // pin the schedule across builds.
  const WorkloadResult sb =
      run_workload(/*exhaustive=*/false, Reply::kFromDestination);
  ASSERT_EQ(sb.deliveries.size(), 192u);  // 96 originals + 96 replies
  const WorkloadResult ex =
      run_workload(/*exhaustive=*/true, Reply::kFromDestination);
  EXPECT_EQ(sb.activity_hash, ex.activity_hash);
  EXPECT_EQ(sb.deliveries, ex.deliveries);
  EXPECT_EQ(sb.activity_hash, 0x04ff753d78c3566cull)
      << std::hex << "activity hash 0x" << sb.activity_hash;
  EXPECT_EQ(delivery_hash(sb), 0xefa73ada4dc60e61ull)
      << std::hex << "delivery hash 0x" << delivery_hash(sb);
}

TEST(Quiescence, ReplyAtAnIdleHigherRouterWaitsForTheNextCycle) {
  // The reply's source router is idle and has a higher id than the ejecting
  // one, so the scan can reach it in the cycle of the activation. Its
  // injection waits for the next cycle all the same (the router pulls only
  // flits injected before now), so the schedule is the exhaustive oracle's
  // and the pinned one.
  const WorkloadResult sb =
      run_workload(/*exhaustive=*/false, Reply::kFromMirror);
  ASSERT_EQ(sb.deliveries.size(), 192u);
  EXPECT_GT(sb.replies_at_idle_higher_router, 0);
  const WorkloadResult ex =
      run_workload(/*exhaustive=*/true, Reply::kFromMirror);
  EXPECT_EQ(sb.activity_hash, ex.activity_hash);
  EXPECT_EQ(sb.deliveries, ex.deliveries);
  EXPECT_EQ(sb.activity_hash, 0x5fe7b66927d94333ull)
      << std::hex << "activity hash 0x" << sb.activity_hash;
  EXPECT_EQ(delivery_hash(sb), 0xaddccfa537a9d0d0ull)
      << std::hex << "delivery hash 0x" << delivery_hash(sb);
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
