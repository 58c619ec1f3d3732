#include "fullsys/cmp_system.hpp"

#include <gtest/gtest.h>

#include "enoc/enoc_network.hpp"
#include "noc/network.hpp"

namespace sctm::fullsys {
namespace {

using noc::Topology;

FullSysParams tiny_caches() {
  FullSysParams p;
  p.l1_sets = 8;  // tiny L1 so misses and evictions actually happen
  p.l1_ways = 2;
  p.l2_sets = 32;
  p.l2_ways = 4;
  return p;
}

/// Hand-built op stream helpers.
std::vector<Op> ops(std::initializer_list<Op> list) { return list; }
Op ld(std::uint64_t line) { return {OpKind::kLoad, line}; }
Op st(std::uint64_t line) { return {OpKind::kStore, line}; }
Op comp(std::uint64_t c) { return {OpKind::kCompute, c}; }
Op bar() { return {OpKind::kBarrier, 0}; }
Op done() { return {OpKind::kDone, 0}; }

std::vector<std::vector<Op>> idle_streams(int n) {
  std::vector<std::vector<Op>> s(static_cast<std::size_t>(n));
  for (auto& v : s) v = ops({bar(), done()});
  return s;
}

TEST(CmpSystem, TrivialBarrierOnlyRun) {
  Simulator sim;
  const auto topo = Topology::mesh(2, 2);
  noc::IdealNetwork net(sim, "net", topo, {});
  CmpSystem cmp(sim, "cmp", net, topo, tiny_caches(), idle_streams(4));
  const Cycle t = cmp.run_to_completion();
  EXPECT_GT(t, 0u);
  EXPECT_TRUE(cmp.finished());
  // 4 BarArrive + 4 BarRelease.
  EXPECT_EQ(cmp.messages_sent(), 8u);
}

TEST(CmpSystem, SingleLoadMissFetchesFromMemory) {
  Simulator sim;
  const auto topo = Topology::mesh(2, 2);
  noc::IdealNetwork net(sim, "net", topo, {});
  auto streams = idle_streams(4);
  streams[0] = ops({ld(5), bar(), done()});  // line 5 homed at node 1
  CmpSystem cmp(sim, "cmp", net, topo, tiny_caches(), streams);
  cmp.run_to_completion();
  // GetS -> MemRead -> MemData -> Data, plus barrier traffic.
  EXPECT_EQ(sim.stats().counter_value("cmp.bank1.mem_reads"), 1u);
  EXPECT_EQ(cmp.core(0).l1_misses(), 1u);
}

TEST(CmpSystem, SecondLoadHitsInL1) {
  Simulator sim;
  const auto topo = Topology::mesh(2, 2);
  noc::IdealNetwork net(sim, "net", topo, {});
  auto streams = idle_streams(4);
  streams[0] = ops({ld(5), ld(5), ld(5), bar(), done()});
  CmpSystem cmp(sim, "cmp", net, topo, tiny_caches(), streams);
  cmp.run_to_completion();
  EXPECT_EQ(cmp.core(0).l1_misses(), 1u);
  EXPECT_EQ(cmp.core(0).l1_hits(), 2u);
}

TEST(CmpSystem, SecondSharerHitsInL2NotMemory) {
  Simulator sim;
  const auto topo = Topology::mesh(2, 2);
  noc::IdealNetwork net(sim, "net", topo, {});
  auto streams = idle_streams(4);
  streams[0] = ops({ld(5), bar(), done()});
  streams[1] = ops({comp(500), ld(5), bar(), done()});  // later, same line
  CmpSystem cmp(sim, "cmp", net, topo, tiny_caches(), streams);
  cmp.run_to_completion();
  EXPECT_EQ(sim.stats().counter_value("cmp.bank1.mem_reads"), 1u);
}

TEST(CmpSystem, StoreAfterSharersInvalidates) {
  Simulator sim;
  const auto topo = Topology::mesh(2, 2);
  noc::IdealNetwork net(sim, "net", topo, {});
  auto streams = idle_streams(4);
  streams[0] = ops({ld(5), bar(), done()});
  streams[1] = ops({ld(5), bar(), done()});
  streams[2] = ops({comp(2000), st(5), bar(), done()});
  CmpSystem cmp(sim, "cmp", net, topo, tiny_caches(), streams);
  cmp.run_to_completion();
  // Core 2's GetM must invalidate the two sharers.
  EXPECT_EQ(sim.stats().counter_value("cmp.bank1.invalidations"), 2u);
}

TEST(CmpSystem, ReadAfterWriteRecallsDirtyLine) {
  Simulator sim;
  const auto topo = Topology::mesh(2, 2);
  noc::IdealNetwork net(sim, "net", topo, {});
  auto streams = idle_streams(4);
  streams[0] = ops({st(5), bar(), done()});
  streams[1] = ops({comp(2000), ld(5), bar(), done()});
  CmpSystem cmp(sim, "cmp", net, topo, tiny_caches(), streams);
  cmp.run_to_completion();
  EXPECT_EQ(sim.stats().counter_value("cmp.bank1.recalls"), 1u);
}

TEST(CmpSystem, DirtyEvictionWritesBack) {
  Simulator sim;
  const auto topo = Topology::mesh(2, 2);
  noc::IdealNetwork net(sim, "net", topo, {});
  FullSysParams p = tiny_caches();
  p.l1_sets = 1;  // single set: conflict evictions guaranteed
  p.l1_ways = 2;
  auto streams = idle_streams(4);
  // Three dirty lines through a 2-way set: at least one writeback.
  streams[0] = ops({st(4), st(8), st(12), bar(), done()});
  CmpSystem cmp(sim, "cmp", net, topo, p, streams);
  cmp.run_to_completion();
  EXPECT_GE(sim.stats().counter_value("cmp.core0.writebacks"), 1u);
}

TEST(CmpSystem, PingPongWritesRecallRepeatedly) {
  Simulator sim;
  const auto topo = Topology::mesh(2, 2);
  noc::IdealNetwork net(sim, "net", topo, {});
  auto streams = idle_streams(4);
  streams[0] = ops({st(7), comp(300), st(7), comp(300), st(7), bar(), done()});
  streams[1] =
      ops({comp(150), st(7), comp(300), st(7), comp(300), st(7), bar(), done()});
  CmpSystem cmp(sim, "cmp", net, topo, tiny_caches(), streams);
  cmp.run_to_completion();
  EXPECT_GE(sim.stats().counter_value("cmp.bank3.recalls"), 3u);
}

TEST(CmpSystem, RuntimeGrowsWithSlowerNetwork) {
  auto runtime = [](Cycle per_hop) {
    Simulator sim;
    const auto topo = Topology::mesh(2, 2);
    noc::IdealNetwork::Params np;
    np.per_hop_latency = per_hop;
    noc::IdealNetwork net(sim, "net", topo, np);
    auto streams = idle_streams(4);
    streams[0] = ops({ld(1), ld(2), ld(3), ld(5), ld(6), bar(), done()});
    CmpSystem cmp(sim, "cmp", net, topo, tiny_caches(), streams);
    return cmp.run_to_completion();
  };
  EXPECT_GT(runtime(50), runtime(1));
}

TEST(CmpSystem, RecordsEveryInjectionWithValidDeps) {
  Simulator sim;
  const auto topo = Topology::mesh(2, 2);
  noc::IdealNetwork net(sim, "net", topo, {});
  auto streams = idle_streams(4);
  streams[0] = ops({ld(5), st(5), bar(), done()});
  streams[1] = ops({ld(5), bar(), done()});
  CmpSystem cmp(sim, "cmp", net, topo, tiny_caches(), streams);
  cmp.run_to_completion();
  ASSERT_EQ(cmp.messages_sent(), net.injected_count());
  const trace::Records r = cmp.take_records();
  ASSERT_EQ(r.size(), net.injected_count());
  bool saw_release = false;
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r.id[i], i + 1);  // message id = record index + 1
    EXPECT_NE(r.arrive[i], kNoCycle);
    EXPECT_GE(r.arrive[i], r.inject[i]);
    for (std::uint32_t k = r.dep_offset[i]; k < r.dep_offset[i + 1]; ++k) {
      EXPECT_LT(r.parent[k], i);  // causes precede effects...
      EXPECT_LE(r.arrive[r.parent[k]], r.inject[i]);  // ...and arrived first
    }
    // Barrier releases must depend on all four arrivals.
    if (r.proto[i] == static_cast<std::uint8_t>(ProtoMsg::kBarRelease)) {
      saw_release = true;
      EXPECT_EQ(r.dep_count(i), 4u);
    }
  }
  EXPECT_TRUE(saw_release);
}

TEST(CmpSystem, WorksOverRealEnoc) {
  Simulator sim;
  const auto topo = Topology::mesh(4, 4);
  enoc::EnocNetwork net(sim, "enoc", topo, enoc::EnocParams{});
  AppParams ap;
  ap.name = "fft";
  ap.cores = 16;
  ap.lines_per_core = 8;
  ap.iterations = 1;
  CmpSystem cmp(sim, "cmp", net, topo, tiny_caches(), build_app(ap));
  const Cycle t = cmp.run_to_completion();
  EXPECT_GT(t, 0u);
  EXPECT_EQ(net.injected_count(), net.delivered_count());
  EXPECT_GT(net.injected_count(), 0u);
}

TEST(CmpSystem, DeterministicOverEnoc) {
  auto run = [] {
    Simulator sim;
    const auto topo = Topology::mesh(4, 4);
    enoc::EnocNetwork net(sim, "enoc", topo, enoc::EnocParams{});
    AppParams ap;
    ap.name = "jacobi";
    ap.cores = 16;
    ap.lines_per_core = 8;
    ap.iterations = 1;
    CmpSystem cmp(sim, "cmp", net, topo, tiny_caches(), build_app(ap));
    return std::pair{cmp.run_to_completion(), net.injected_count()};
  };
  EXPECT_EQ(run(), run());
}

TEST(CmpSystem, CoreDetailModesAreTimingInvariant) {
  struct Run {
    Cycle runtime;
    std::uint64_t events;
    trace::Records records;
  };
  auto run = [](CoreDetail detail) {
    Simulator sim;
    const auto topo = Topology::mesh(4, 4);
    enoc::EnocNetwork net(sim, "enoc", topo, enoc::EnocParams{});
    AppParams ap;
    ap.name = "fft";
    ap.cores = 16;
    ap.lines_per_core = 8;
    ap.iterations = 1;
    FullSysParams p;
    p.l1_sets = 8;
    p.l1_ways = 2;
    p.l2_sets = 32;
    p.l2_ways = 4;
    p.core_detail = detail;
    CmpSystem cmp(sim, "cmp", net, topo, p, build_app(ap));
    const Cycle t = cmp.run_to_completion();
    return Run{t, sim.events_executed(), cmp.take_records()};
  };
  const Run folded = run(CoreDetail::kFolded);
  const Run per_cycle = run(CoreDetail::kPerCycle);
  // Identical cycle-level schedule, so identical recorded traces...
  EXPECT_EQ(folded.runtime, per_cycle.runtime);
  EXPECT_GT(folded.records.size(), 0u);
  EXPECT_EQ(folded.records, per_cycle.records);
  // ...at a higher simulation cost: per-cycle pays an event per compute
  // cycle.
  EXPECT_GT(per_cycle.events, folded.events);
}

TEST(CmpSystem, MismatchedStreamsThrow) {
  Simulator sim;
  const auto topo = Topology::mesh(2, 2);
  noc::IdealNetwork net(sim, "net", topo, {});
  EXPECT_THROW(
      CmpSystem(sim, "cmp", net, topo, tiny_caches(), idle_streams(5)),
      std::invalid_argument);
}

class AppOverIdeal : public ::testing::TestWithParam<const char*> {};

TEST_P(AppOverIdeal, RunsToCompletionLosslessly) {
  Simulator sim;
  const auto topo = Topology::mesh(4, 4);
  noc::IdealNetwork net(sim, "net", topo, {});
  AppParams ap;
  ap.name = GetParam();
  ap.cores = 16;
  ap.lines_per_core = 12;
  ap.iterations = 2;
  CmpSystem cmp(sim, "cmp", net, topo, tiny_caches(), build_app(ap));
  const Cycle t = cmp.run_to_completion();
  EXPECT_GT(t, 0u);
  EXPECT_EQ(net.injected_count(), net.delivered_count());
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_TRUE(cmp.bank(n).quiescent()) << "bank " << n << " stuck";
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppOverIdeal,
                         ::testing::Values("jacobi", "fft", "lu", "sort",
                                           "barnes", "stream"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace sctm::fullsys
