#include "analytic/trace_profile.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "support/trace_builder.hpp"

namespace sctm::analytic {
namespace {

fixtures::Rec rec(MsgId id, NodeId src, NodeId dst, std::uint32_t bytes,
                 noc::MsgClass cls, Cycle inject, Cycle arrive) {
  return {id, src, dst, inject, arrive, {}, bytes, cls};
}

core::ReplayTrace make_rt(const std::vector<fixtures::Rec>& records,
                          std::int32_t nodes) {
  return core::ReplayTrace(fixtures::make_trace(nodes, records));
}

/// A k-record chain on one (src, dst) pair: each record depends on the
/// previous with the given slack (capture latency L0 per hop keeps the
/// arrive + slack == inject invariant).
core::ReplayTrace chain(std::uint32_t k, Cycle slack, Cycle capture_latency) {
  std::vector<fixtures::Rec> recs;
  Cycle inject = 10;
  for (std::uint32_t i = 0; i < k; ++i) {
    auto r = rec(i + 1, 0, 5, 64, noc::MsgClass::kData, inject,
                 inject + capture_latency);
    if (i > 0) r.parents.push_back(i);
    recs.push_back(r);
    inject = recs.back().arrive + slack;
  }
  return make_rt(recs, 16);
}

void expect_flow(const TraceProfile::Flow& f, NodeId src, NodeId dst,
                 noc::MsgClass cls) {
  EXPECT_EQ(f.src, src);
  EXPECT_EQ(f.dst, dst);
  EXPECT_EQ(f.cls, static_cast<int>(cls));
}

TEST(TraceProfile, RequiresFinalizedTrace) {
  const core::ReplayTrace rt;
  EXPECT_THROW(profile_trace(rt), std::logic_error);
}

TEST(TraceProfile, OfferedLoadMatrices) {
  // Records out of (src, dst, cls) order: the flow list comes from the sort.
  const auto rt = make_rt(
      {rec(1, 2, 3, 16, noc::MsgClass::kReply, 0, 8),
       rec(2, 0, 1, 96, noc::MsgClass::kData, 2, 9),
       rec(3, 0, 1, 32, noc::MsgClass::kRequest, 3, 5),
       rec(4, 0, 1, 64, noc::MsgClass::kData, 4, 9)},
      4);
  const TraceProfile p = profile_trace(rt);
  EXPECT_EQ(p.nodes, 4);
  EXPECT_EQ(p.records, 4u);
  EXPECT_EQ(p.first_inject, 0u);
  EXPECT_EQ(p.last_inject, 4u);
  EXPECT_EQ(p.span(), 5u);
  ASSERT_EQ(p.flows.size(), 3u);
  expect_flow(p.flows[0], 0, 1, noc::MsgClass::kRequest);
  expect_flow(p.flows[1], 0, 1, noc::MsgClass::kData);
  expect_flow(p.flows[2], 2, 3, noc::MsgClass::kReply);
  EXPECT_DOUBLE_EQ(p.flows[0].msgs, 1.0);
  EXPECT_DOUBLE_EQ(p.flows[0].mean_bytes, 32.0);
  EXPECT_DOUBLE_EQ(p.flows[1].msgs, 2.0);
  EXPECT_DOUBLE_EQ(p.flows[1].mean_bytes, 80.0);  // (96 + 64) / 2
  EXPECT_DOUBLE_EQ(p.flows[2].msgs, 1.0);
  EXPECT_DOUBLE_EQ(p.flows[2].mean_bytes, 16.0);
}

// Offered load is kept per active flow, never per node pair: a trace that
// names INT32_MAX nodes profiles without allocating for them, and the
// largest flow key (last node to itself, last class) still sorts last.
TEST(TraceProfile, CostIndependentOfNodeCount) {
  constexpr NodeId kLast = std::numeric_limits<std::int32_t>::max() - 1;
  const auto rt = make_rt(
      {rec(1, kLast, kLast, 8, noc::MsgClass::kControl, 0, 4),
       rec(2, 5, kLast, 64, noc::MsgClass::kData, 1, 9),
       rec(3, 0, 7, 8, noc::MsgClass::kReply, 2, 6)},
      std::numeric_limits<std::int32_t>::max());
  const TraceProfile p = profile_trace(rt);
  ASSERT_EQ(p.flows.size(), 3u);
  expect_flow(p.flows[0], 0, 7, noc::MsgClass::kReply);
  expect_flow(p.flows[1], 5, kLast, noc::MsgClass::kData);
  expect_flow(p.flows[2], kLast, kLast, noc::MsgClass::kControl);
}

TEST(TraceProfile, ClassMomentsAndCv) {
  const auto rt = make_rt(
      {rec(1, 0, 1, 10, noc::MsgClass::kData, 0, 5),
       rec(2, 0, 1, 30, noc::MsgClass::kData, 1, 6),
       rec(3, 1, 2, 64, noc::MsgClass::kControl, 2, 7)},
      4);
  const TraceProfile p = profile_trace(rt);
  const auto& data = p.cls[static_cast<int>(noc::MsgClass::kData)];
  EXPECT_EQ(data.messages, 2u);
  EXPECT_DOUBLE_EQ(data.mean_bytes(), 20.0);
  // var = E[x^2] - mean^2 = (100 + 900)/2 - 400 = 100; cv^2 = 100/400.
  EXPECT_NEAR(data.cv_sq(), 0.25, 1e-12);
  const auto& ctl = p.cls[static_cast<int>(noc::MsgClass::kControl)];
  EXPECT_DOUBLE_EQ(ctl.cv_sq(), 0.0);  // constant size
}

TEST(TraceProfile, DependencySummary) {
  auto child = rec(2, 1, 2, 8, noc::MsgClass::kReply, 12, 20);
  child.parents.push_back(1);  // parent arrives at 8, slack 4
  const auto rt = make_rt(
      {rec(1, 0, 1, 8, noc::MsgClass::kRequest, 0, 8), child}, 4);
  const TraceProfile p = profile_trace(rt);
  EXPECT_EQ(p.roots, 1u);
  EXPECT_DOUBLE_EQ(p.mean_fanin, 0.5);
  EXPECT_EQ(p.critical_depth, 2u);
}

TEST(TraceProfile, HullExactOnAnchoredChain) {
  // Replay of a k-chain with per-dep slack s on a fixed-latency-L network:
  // completion = inject0 + k*L + (k-1)*s. The envelope must reproduce that
  // line exactly for any L.
  const std::uint32_t k = 7;
  const Cycle s = 3;
  const auto rt = chain(k, s, /*capture_latency=*/11);
  const TraceProfile p = profile_trace(rt);
  EXPECT_EQ(p.critical_depth, k);
  for (const double L : {1.0, 11.0, 250.0}) {
    EXPECT_DOUBLE_EQ(p.hull_eval(L), 10.0 + k * L + (k - 1) * s) << L;
  }
}

TEST(TraceProfile, HullEnvelopeIsMonotoneAndMaxOverChains) {
  // Two independent chains: a deep one (depth 5, low base) and a shallow
  // late one (depth 1, high base). Small L -> the late root dominates;
  // large L -> the deep chain does. The envelope takes the max.
  std::vector<fixtures::Rec> recs;
  Cycle inject = 0;
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto r = rec(i + 1, 0, 1, 16, noc::MsgClass::kData, inject, inject + 4);
    if (i > 0) r.parents.push_back(i);
    recs.push_back(r);
    inject = recs.back().arrive;
  }
  recs.push_back(rec(100, 2, 3, 16, noc::MsgClass::kData, 100, 104));
  const TraceProfile p = profile_trace(make_rt(recs, 4));
  EXPECT_DOUBLE_EQ(p.hull_eval(1.0), 101.0);   // late root: 100 + 1
  EXPECT_DOUBLE_EQ(p.hull_eval(50.0), 250.0);  // deep chain: 0 + 5*50
  double prev = 0;
  for (double L = 1; L < 400; L += 7) {
    const double v = p.hull_eval(L);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

}  // namespace
}  // namespace sctm::analytic
