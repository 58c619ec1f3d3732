#include "analytic/model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/driver.hpp"
#include "fullsys/app.hpp"
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

/// Uniform all-to-neighbour traffic: `per_pair` messages on every
/// (i, i+1 mod n) pair, spread over [0, span).
core::ReplayTrace uniform_traffic(std::uint32_t per_pair, Cycle span) {
  std::vector<fixtures::Rec> recs;
  MsgId id = 1;
  const std::int32_t n = 16;
  for (std::uint32_t m = 0; m < per_pair; ++m) {
    for (std::int32_t s = 0; s < n; ++s) {
      const Cycle t = (m * span) / per_pair + s % 7;
      recs.push_back(rec(id++, s, (s + 1) % n, 64, noc::MsgClass::kData,
                         t, t + 10));
    }
  }
  return make_rt(recs, n);
}

core::NetSpec spec_of(core::NetKind kind) {
  core::NetSpec s;
  s.kind = kind;
  return s;
}

TEST(AnalyticModel, AllKindsConstructAndEstimate) {
  const auto rt = uniform_traffic(4, 400);
  const TraceProfile p = profile_trace(rt);
  for (const auto kind :
       {core::NetKind::kIdeal, core::NetKind::kEnoc,
        core::NetKind::kOnocToken, core::NetKind::kOnocSetup,
        core::NetKind::kOnocSwmr, core::NetKind::kHybrid}) {
    SCOPED_TRACE(core::to_string(kind));
    const AnalyticResult r = estimate(p, spec_of(kind));
    EXPECT_TRUE(std::isfinite(r.est_runtime));
    EXPECT_GT(r.est_runtime, 0.0);
    EXPECT_GT(r.est_mean_latency, 0.0);
    EXPECT_GE(r.est_p99, r.est_mean_latency);
  }
}

TEST(AnalyticModel, ExactOnContentionFreeIdealFlow) {
  // A single anchored chain on one pair has zero contention, so the
  // analytic ideal estimate must agree with full replay *exactly*: same
  // per-message latency, same completion time.
  std::vector<fixtures::Rec> recs;
  Cycle inject = 20;
  for (std::uint32_t i = 0; i < 9; ++i) {
    auto r = rec(i + 1, 0, 5, 100, noc::MsgClass::kData, inject, inject + 7);
    if (i > 0) r.parents.push_back(i);
    recs.push_back(r);
    inject = recs.back().arrive + 2;
  }
  const auto rt = make_rt(recs, 16);

  const core::NetSpec spec = spec_of(core::NetKind::kIdeal);
  const auto rep = core::run_replay(rt, spec, {});
  const AnalyticResult est = estimate(profile_trace(rt), spec);

  const auto h = rep.result.latency_histogram();
  EXPECT_DOUBLE_EQ(est.est_mean_latency, h.mean());
  EXPECT_DOUBLE_EQ(est.est_runtime,
                   static_cast<double>(rep.result.runtime));
  EXPECT_DOUBLE_EQ(est.est_p99, static_cast<double>(h.percentile(0.99)));
}

TEST(AnalyticModel, MonotoneInOfferedLoad) {
  // Twice the messages in the same injection span -> strictly more waiting
  // on every contended station, for both electrical and optical kinds.
  const TraceProfile sparse = profile_trace(uniform_traffic(2, 400));
  const TraceProfile dense = profile_trace(uniform_traffic(8, 400));
  for (const auto kind : {core::NetKind::kEnoc, core::NetKind::kOnocToken,
                          core::NetKind::kOnocSwmr}) {
    SCOPED_TRACE(core::to_string(kind));
    const auto s = estimate(sparse, spec_of(kind));
    const auto d = estimate(dense, spec_of(kind));
    EXPECT_GT(d.est_mean_latency, s.est_mean_latency);
  }
}

// onoc-setup's path setup crosses the control mesh, which runs on the
// spec's `enoc` block as in the network, so its estimate follows it too.
TEST(AnalyticModel, MonotoneInLinkLatency) {
  const TraceProfile p = profile_trace(uniform_traffic(4, 400));
  for (const auto kind : {core::NetKind::kEnoc, core::NetKind::kOnocSetup}) {
    SCOPED_TRACE(core::to_string(kind));
    double prev = 0;
    for (const std::uint32_t ll : {1u, 2u, 4u, 8u}) {
      core::NetSpec s = spec_of(kind);
      s.enoc.link_latency = ll;
      const auto r = estimate(p, s);
      EXPECT_GT(r.est_mean_latency, prev) << "link_latency=" << ll;
      EXPECT_GE(r.est_runtime, prev);
      prev = r.est_mean_latency;
    }
  }
}

TEST(AnalyticModel, MoreWavelengthsNeverHurt) {
  const TraceProfile p = profile_trace(uniform_traffic(6, 300));
  core::NetSpec narrow = spec_of(core::NetKind::kOnocSwmr);
  narrow.onoc.wavelengths = 8;
  core::NetSpec wide = narrow;
  wide.onoc.wavelengths = 64;
  EXPECT_GE(estimate(p, narrow).est_mean_latency,
            estimate(p, wide).est_mean_latency);
  EXPECT_GE(estimate(p, narrow).est_runtime, estimate(p, wide).est_runtime);
}

TEST(AnalyticModel, EmptyProfileEstimatesZero) {
  const TraceProfile p = profile_trace(core::ReplayTrace(trace::Trace{}));
  const auto r = estimate(p, spec_of(core::NetKind::kEnoc));
  EXPECT_DOUBLE_EQ(r.est_runtime, 0.0);
  EXPECT_DOUBLE_EQ(r.est_mean_latency, 0.0);
}

// Estimates on the 16-core fft capture tests/analytic/test_screen.cpp
// screens, pinned bit for bit as hex floats: a change to how the profile
// keeps offered load or how a kind is scored must not move any of them.
TEST(AnalyticModel, PinnedEstimates) {
  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  const TraceProfile p = profile_trace(core::ReplayTrace(
      core::run_execution(app, spec_of(core::NetKind::kEnoc), {}).trace));
  core::NetSpec hybrid5 = spec_of(core::NetKind::kHybrid);
  hybrid5.hybrid.distance_threshold = 5;
  struct Pin {
    core::NetSpec spec;
    AnalyticResult want;
  };
  const Pin pins[] = {
      {spec_of(core::NetKind::kIdeal),
       {0x1.0af5555555555p+11, 0x1.5555555555555p+2, 0x1.8p+3,
        {0x1.2cf914c1bacf9p+2, 0x1.1611a7b9611a8p+2, 0x1.ep+2, 0x0p+0}}},
      {spec_of(core::NetKind::kEnoc),
       {0x1.25262fb360e84p+11, 0x1.0545d57378c2ap+3, 0x1.cf3a96b4ebdffp+4,
        {0x1.f9d491b236302p+2, 0x1.9e1c0e3274611p+2, 0x1.53abbce3d4c46p+3,
         0x0p+0}}},
      {spec_of(core::NetKind::kOnocToken),
       {0x1.3fcfbd16a51edp+11, 0x1.61828e24d3717p+3, 0x1.22e72aa2da986p+4,
        {0x1.4179eb69c796ap+3, 0x1.32a5fec87ee1dp+3, 0x1.cb850b94c13c5p+3,
         0x0p+0}}},
      {spec_of(core::NetKind::kOnocSetup),
       {0x1.899489e371ebep+11, 0x1.305ae0ac0352ep+4, 0x1.e17395516d4c3p+5,
        {0x1.318c8700ff783p+4, 0x1.00fab8c559ec7p+4, 0x1.67c285ca609e3p+4,
         0x0p+0}}},
      {spec_of(core::NetKind::kOnocSwmr),
       {0x1.0b4dd02ba5ea3p+11, 0x1.57b984a39e8bcp+2, 0x1.4c8ba6ee408d1p+3,
        {0x1.f7c81e26da17p+1, 0x1.f980428fdd3aep+1, 0x1.299d4e4dafb89p+3,
         0x0p+0}}},
      {spec_of(core::NetKind::kHybrid),
       {0x1.24c2ba45a5eebp+11, 0x1.03edc2abc17eep+3, 0x1.1ac79b3f2593ap+4,
        {0x1.b0c959ac42441p+2, 0x1.77482e787e918p+2, 0x1.9e64c8d12b64p+3,
         0x0p+0}}},
      {hybrid5,
       {0x1.26cdbf2d5eadbp+11, 0x1.0aff1fbf8cb9bp+3, 0x1.198de915dfef7p+4,
        {0x1.c9a446637615p+2, 0x1.83bfecb64db4ap+2, 0x1.9e34cc73806bp+3,
         0x0p+0}}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message()
                 << core::to_string(pin.spec.kind) << " distance_threshold="
                 << pin.spec.hybrid.distance_threshold);
    const AnalyticResult got = estimate(p, pin.spec);
    EXPECT_EQ(got.est_runtime, pin.want.est_runtime);
    EXPECT_EQ(got.est_mean_latency, pin.want.est_mean_latency);
    EXPECT_EQ(got.est_p99, pin.want.est_p99);
    EXPECT_EQ(got.per_class, pin.want.per_class);
  }
}

TEST(AnalyticModel, HybridBlendsElectricalAndOptical) {
  // Big far messages go optical under the default steering rule; the hybrid
  // estimate must sit within the span of its two constituent estimates.
  const TraceProfile p = profile_trace(uniform_traffic(4, 400));
  const double hybrid = estimate(p, spec_of(core::NetKind::kHybrid))
                            .est_mean_latency;
  EXPECT_GT(hybrid, 0.0);
  EXPECT_TRUE(std::isfinite(hybrid));
}

}  // namespace
}  // namespace sctm::analytic
