// Allocation-counting hook for the event kernel (own test binary: it
// overrides the global operator new/delete to count every heap allocation in
// the process).
//
// The acceptance bar for the allocation-free kernel: once the wheel buckets
// have warmed up to the workload's per-cycle event count, scheduling and
// dispatching events performs ZERO heap allocations — closures live in the
// InlineFn small buffer, bucket vectors retain their capacity across cycles,
// and batch dispatch touches no node-based containers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/replay.hpp"
#include "enoc/enoc_network.hpp"
#include "onoc/hybrid_network.hpp"
#include "onoc/onoc_network.hpp"
#include "sim/simulator.hpp"

namespace {

std::uint64_t g_allocs = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  ++g_allocs;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sctm {
namespace {

// A steady-state workload shaped like the simulator's real traffic: several
// self-rescheduling "components" whose events carry message-sized payloads,
// same-cycle (delta 0) bursts, multi-cycle hops, and a late-band flush per
// cycle — the SCTM replay pattern.
struct MessagePayload {
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5;
  std::uint32_t f = 6, g = 7;
};
static_assert(sizeof(MessagePayload) == 48);

struct Churn {
  Simulator& sim;
  MessagePayload payload{};
  std::uint64_t delivered = 0;
  Cycle until = 0;

  void hop() {
    if (sim.now() >= until) return;
    ++delivered;
    MessagePayload p = payload;
    // Same-cycle burst (router pipeline stages within a cycle)...
    sim.schedule_in(0, [this, p] {
      (void)p;
      // ...then a short link hop...
      sim.schedule_in(1 + (delivered % 3), [this, p2 = p] {
        (void)p2;
        hop();
      });
    });
  }

  void late_flush() {
    if (sim.now() >= until) return;
    sim.schedule_late(sim.now() + 1, [this] { late_flush(); });
  }
};

TEST(AllocFreeKernel, SteadyStateSchedulesAndDispatchesWithoutHeapTraffic) {
  Simulator sim;
  constexpr int kComponents = 16;
  std::vector<Churn> comps;
  comps.reserve(kComponents);
  for (int i = 0; i < kComponents; ++i) {
    comps.push_back(Churn{sim, {}, 0, /*until=*/4000});
  }

  // Warmup: grow bucket vectors to the workload's per-cycle footprint.
  for (auto& c : comps) c.hop();
  comps.front().late_flush();
  sim.run_until(2000);
  ASSERT_GT(sim.events_executed(), 1000u);

  // Steady state: not one allocation for thousands of schedule+dispatch
  // round trips, and not one InlineFn heap fallback.
  const std::uint64_t allocs_before = g_allocs;
  const std::uint64_t fallbacks_before = InlineFn::heap_fallbacks();
  const std::uint64_t executed_before = sim.events_executed();
  sim.run_until(4000);
  const std::uint64_t executed = sim.events_executed() - executed_before;
  EXPECT_GT(executed, 4000u);
  EXPECT_EQ(g_allocs - allocs_before, 0u)
      << "steady-state kernel performed heap allocations over " << executed
      << " events";
  EXPECT_EQ(InlineFn::heap_fallbacks() - fallbacks_before, 0u);
}

// Feeds `net` rounds of `per_round` messages on one Simulator: message i
// goes from node i % nodes to a scattered destination and carries
// bytes_of(i) bytes. Four warmup rounds grow every retained-capacity
// structure (flit rings, pending-message tables, arbitration queues, wheel
// buckets, latency histogram) to the workload's footprint; the eight rounds
// after them must not touch the heap. Rounds start phase-aligned to the
// 64-bucket calendar wheel so the steady-state rounds revisit exactly the
// bucket indices the warmup rounds grew (bucket capacity is retained per
// index; an unaligned burst would land its event spike in a cold bucket and
// honestly need to grow it).
template <typename BytesOf>
void expect_steady_rounds_allocation_free(Simulator& sim, noc::Network& net,
                                          int per_round, BytesOf bytes_of) {
  const int nodes = net.node_count();
  std::uint64_t delivered = 0;
  net.set_deliver_callback([&](const noc::Message&) { ++delivered; });

  constexpr Cycle kRoundStride = 512;
  static_assert(kRoundStride % 64 == 0);
  MsgId next_id = 1;
  int round = 0;
  auto run_round = [&] {
    const Cycle start = static_cast<Cycle>(round++) * kRoundStride;
    sim.schedule_at(start, [&] {
      for (int i = 0; i < per_round; ++i) {
        noc::Message m;
        m.id = next_id++;
        m.src = static_cast<NodeId>(i % nodes);
        m.dst = static_cast<NodeId>((i * 7 + 5) % nodes);
        if (m.dst == m.src) m.dst = (m.dst + 1) % nodes;
        m.size_bytes = bytes_of(i);
        m.cls = noc::MsgClass::kData;
        net.inject(m);
      }
    });
    sim.run();
  };

  for (int r = 0; r < 4; ++r) run_round();
  const auto per = static_cast<std::uint64_t>(per_round);
  ASSERT_EQ(delivered, 4 * per);

  const std::uint64_t allocs_before = g_allocs;
  const std::uint64_t fallbacks_before = InlineFn::heap_fallbacks();
  for (int r = 0; r < 8; ++r) run_round();
  EXPECT_EQ(delivered, 12 * per);
  EXPECT_EQ(g_allocs - allocs_before, 0u)
      << "steady-state rounds on " << net.name() << " hit the heap";
  EXPECT_EQ(InlineFn::heap_fallbacks() - fallbacks_before, 0u);
}

TEST(AllocFreeKernel, SteadyStateRouterTraversalIsAllocationFree) {
  // The full flit datapath — network inject, flit synthesis into the staging
  // ring, VC buffering, three-phase pipeline, wire FIFOs, credits, ejection
  // and delivery.
  Simulator sim;
  enoc::EnocNetwork net(sim, "enoc", noc::Topology::mesh(4, 4),
                        enoc::EnocParams{});
  expect_steady_rounds_allocation_free(sim, net, 16,
                                       [](int) { return 64u; });
}

TEST(AllocFreeKernel, SteadyStateHybridSteeringIsAllocationFree) {
  // Both planes of a long-lived hybrid: the steering splits the rounds
  // between the electrical mesh and the token-ring optical layer, whose
  // per-channel arbitration queues each hold two requests per round (two
  // messages share every destination).
  Simulator sim;
  onoc::HybridNetwork net(sim, "hybrid", noc::Topology::mesh(4, 4),
                          enoc::EnocParams{}, onoc::OnocParams{},
                          onoc::HybridParams{});
  expect_steady_rounds_allocation_free(
      sim, net, 32, [](int i) { return i % 2 == 0 ? 64u : 8u; });
  EXPECT_GT(net.optical_count(), 0u);
  EXPECT_GT(net.electrical_count(), 0u);
}

TEST(AllocFreeKernel, SteadyStateSwmrArbitrationIsAllocationFree) {
  // The SWMR optical plane: every source channel's arbitration queue holds
  // two requests per round (each node sends twice in the round's cycle).
  Simulator sim;
  onoc::OnocNetwork net(sim, "swmr", noc::Topology::mesh(4, 4),
                        onoc::OnocParams{}, onoc::Arbitration::kSwmr);
  expect_steady_rounds_allocation_free(sim, net, 32,
                                       [](int) { return 64u; });
}

TEST(AllocFreeKernel, ReplayEligibilityBatcherSteadyStateIsAllocationFree) {
  // The replay scheduler's per-cycle injection batching (cycle -> record
  // batch) must retain capacity across cycles: after warming up to the
  // workload's footprint (batch sizes, concurrent in-flight cycles), the
  // add/flush churn of a steady-state replay slice performs zero heap
  // allocations. This is the structure that replaced a per-pass
  // unordered_map<Cycle, vector> in the replay engine.
  core::EligibilityBatcher batcher;
  std::uint64_t dispatched = 0;
  auto sink = [&dispatched](std::uint32_t) { ++dispatched; };

  constexpr int kInFlight = 16;   // concurrent eligible cycles
  constexpr int kBatch = 48;      // records per cycle (same-cycle burst)
  auto run_slice = [&](Cycle base, int cycles) {
    for (int c = 0; c < cycles; ++c) {
      const Cycle t = base + static_cast<Cycle>(c);
      for (std::uint32_t i = 0; i < kBatch; ++i) {
        // Out-of-order adds, as dependency resolution produces them.
        batcher.add(t, (kBatch - i) * 7 % 97);
      }
      if (c >= kInFlight) batcher.flush(t - kInFlight, sink);
    }
    for (int c = cycles - kInFlight; c < cycles; ++c) {
      batcher.flush(base + static_cast<Cycle>(c), sink);
    }
  };

  run_slice(0, 256);  // warmup: grow the slot pool and the cycle map
  ASSERT_EQ(dispatched, 256u * kBatch);

  const std::uint64_t allocs_before = g_allocs;
  run_slice(1000, 2048);  // steady state at the same footprint
  EXPECT_EQ(dispatched, (256u + 2048u) * kBatch);
  EXPECT_EQ(g_allocs - allocs_before, 0u)
      << "steady-state eligibility batching hit the heap";
}

TEST(AllocFreeKernel, FarHeapPathAllocatesOnlyForGrowth) {
  // Far-future schedules may grow the far heap's vector, but re-using the
  // same depth afterwards must be allocation-free too.
  Simulator sim;
  int ran = 0;
  // A +200 stride visits 8 distinct wheel buckets (200 mod 64 = 8); warm up
  // one full lap so every bucket on the orbit has grown its vector once.
  for (int round = 0; round < 10; ++round) {
    sim.schedule_in(200, [&] { ++ran; });
    sim.run();
  }
  const std::uint64_t before = g_allocs;
  for (int round = 0; round < 50; ++round) {
    sim.schedule_in(200, [&] { ++ran; });
    sim.run();
  }
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_EQ(ran, 60);
}

}  // namespace
}  // namespace sctm
