#include "core/replay.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/driver.hpp"
#include "core/error_metrics.hpp"
#include "support/trace_builder.hpp"

namespace sctm::core {
namespace {

fullsys::AppParams small_app(const char* name) {
  fullsys::AppParams app;
  app.name = name;
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  return app;
}

fullsys::FullSysParams small_sys() {
  fullsys::FullSysParams sys;
  sys.l1_sets = 8;
  sys.l1_ways = 2;
  sys.l2_sets = 32;
  sys.l2_ways = 4;
  return sys;
}

NetSpec enoc_spec() {
  NetSpec s;
  s.kind = NetKind::kEnoc;
  return s;
}

NetSpec ideal_spec(Cycle per_hop = 1) {
  NetSpec s;
  s.kind = NetKind::kIdeal;
  s.ideal.per_hop_latency = per_hop;
  return s;
}

// The central correctness property of the Self-Correction Trace Model:
// replaying a trace on the *capture* network reproduces the captured
// schedule exactly (injections AND arrivals), because every dependency
// resolves at exactly its captured time.
TEST(Replay, FixedPointOnCaptureNetworkIdeal) {
  const auto exec = run_execution(small_app("fft"), ideal_spec(), small_sys());
  const auto rep = run_replay(ReplayTrace(exec.trace), ideal_spec(), {});
  ASSERT_EQ(rep.result.inject_time.size(), exec.trace.records.size());
  for (std::size_t i = 0; i < exec.trace.records.size(); ++i) {
    EXPECT_EQ(rep.result.inject_time[i], exec.trace.records.inject[i])
        << "record " << i;
    EXPECT_EQ(rep.result.arrive_time[i], exec.trace.records.arrive[i])
        << "record " << i;
  }
  EXPECT_EQ(rep.result.runtime, exec.trace.capture_runtime);
  EXPECT_EQ(rep.result.iterations, 1);
}

class FixedPointAllApps : public ::testing::TestWithParam<const char*> {};

// The paper's central soundness property, on the *real* electrical NoC with
// arbitration, VCs and credit stalls — every captured injection and arrival
// must reproduce bit-exactly when the replay target equals the capture
// network.
TEST_P(FixedPointAllApps, EnocReplayBitExact) {
  const auto exec =
      run_execution(small_app(GetParam()), enoc_spec(), small_sys());
  const auto rep = run_replay(ReplayTrace(exec.trace), enoc_spec(), {});
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < exec.trace.records.size(); ++i) {
    if (rep.result.inject_time[i] != exec.trace.records.inject[i] ||
        rep.result.arrive_time[i] != exec.trace.records.arrive[i]) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllApps, FixedPointAllApps,
                         ::testing::Values("jacobi", "fft", "lu", "sort",
                                           "barnes", "stream"),
                         [](const auto& info) { return info.param; });

TEST(Replay, FixedPointOnOnocTokenNetwork) {
  NetSpec onoc;
  onoc.kind = NetKind::kOnocToken;
  const auto exec = run_execution(small_app("fft"), onoc, small_sys());
  const auto rep = run_replay(ReplayTrace(exec.trace), onoc, {});
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < exec.trace.records.size(); ++i) {
    if (rep.result.inject_time[i] != exec.trace.records.inject[i] ||
        rep.result.arrive_time[i] != exec.trace.records.arrive[i]) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Replay, NaiveAlsoExactOnCaptureNetworkIdeal) {
  // On an uncontended ideal network, frozen timestamps happen to be right —
  // the strawman only breaks when the target differs from the capture net.
  const auto exec = run_execution(small_app("fft"), ideal_spec(), small_sys());
  ReplayConfig cfg;
  cfg.mode = ReplayMode::kNaive;
  const auto rep = run_replay(ReplayTrace(exec.trace), ideal_spec(), cfg);
  for (std::size_t i = 0; i < exec.trace.records.size(); ++i) {
    EXPECT_EQ(rep.result.inject_time[i], exec.trace.records.inject[i]);
  }
}

TEST(Replay, SelfCorrectingTracksSlowerTarget) {
  // Capture on a fast network; replay on one 20x slower per hop. SCTM must
  // stretch the schedule (runtime grows); naive must keep captured
  // injection times (it cannot react).
  const auto exec = run_execution(small_app("fft"), ideal_spec(1), small_sys());

  ReplayConfig naive;
  naive.mode = ReplayMode::kNaive;
  const ReplayTrace rt(exec.trace);
  const auto rep_naive = run_replay(rt, ideal_spec(20), naive);
  const auto rep_sctm = run_replay(rt, ideal_spec(20), {});

  EXPECT_GT(rep_sctm.result.runtime, exec.trace.capture_runtime * 2);
  for (std::size_t i = 0; i < exec.trace.records.size(); ++i) {
    EXPECT_EQ(rep_naive.result.inject_time[i],
              exec.trace.records.inject[i]);
    EXPECT_GE(rep_sctm.result.inject_time[i],
              exec.trace.records.inject[i]);
  }
}

TEST(Replay, SelfCorrectingTracksFasterTarget) {
  // Capture slow, replay fast: SCTM must compress the schedule.
  const auto exec =
      run_execution(small_app("jacobi"), ideal_spec(20), small_sys());
  const auto rep = run_replay(ReplayTrace(exec.trace), ideal_spec(1), {});
  EXPECT_LT(rep.result.runtime, exec.trace.capture_runtime);
}

TEST(Replay, SctmBeatsNaiveAgainstGroundTruth) {
  // Capture on the electrical mesh, target the slow ideal network; ground
  // truth = execution-driven on the target. SCTM's runtime prediction must
  // be markedly closer than naive's.
  const auto app = small_app("fft");
  const auto sys = small_sys();
  const auto exec_capture = run_execution(app, enoc_spec(), sys);
  const auto exec_truth = run_execution(app, ideal_spec(20), sys);

  ReplayConfig naive;
  naive.mode = ReplayMode::kNaive;
  const ReplayTrace rt(exec_capture.trace);
  const auto rep_naive = run_replay(rt, ideal_spec(20), naive);
  const auto rep_sctm = run_replay(rt, ideal_spec(20), {});

  const auto truth = summarize(exec_truth.trace);
  const auto e_naive = compare(truth, summarize(rep_naive.result));
  const auto e_sctm = compare(truth, summarize(rep_sctm.result));
  EXPECT_LT(e_sctm.runtime_err, e_naive.runtime_err * 0.5);
  EXPECT_LT(e_sctm.runtime_err, 0.15);
}

TEST(Replay, DependencyRespectedInReplaySchedule) {
  const auto exec = run_execution(small_app("sort"), enoc_spec(), small_sys());
  const ReplayTrace rt(exec.trace);
  const auto rep = run_replay(rt, ideal_spec(5), {});
  for (std::uint32_t i = 0; i < rt.size(); ++i) {
    for (std::uint32_t k = 0; k < rt.dep_count(i); ++k) {
      const auto p = rt.dep_parent_index(i, k);
      EXPECT_GE(rep.result.inject_time[i],
                rep.result.arrive_time[p] + exec.trace.records.slack(i, p))
          << "dependency violated at record " << i;
    }
  }
}

// A hand-built kept-set case: X names P twice, and Q and R tie on slack.
// Captured slacks rank X's dependencies Q(5) < R(5) < P(10) = P(10), so
// window 1 keeps Q (the lower id wins the tie), window 2 adds R, and
// window 3 adds exactly one of the two P edges. Every message takes 4
// cycles on the 2x2 ideal fabric, so roots arrive at P 54, Q 44, R 74,
// and a single pass injects X at
//   W=1: Q+5 = 49;   W=2: max(Q+5, R+5) = 79;
//   W=3: R+5 = 79 — P arrives first, but one P edge must not count twice.
// Z names P alone, sharing P's dependents list with X's two edges.
TEST(Replay, KeptSetBreaksSlackTiesByIdAndCountsDuplicateParents) {
  const ReplayTrace rt(fixtures::make_trace(
      4, {{1, 0, 1, 50, 90, {}, 16},              // P
          {2, 0, 1, 40, 95, {}, 16},              // Q
          {3, 0, 1, 70, 95, {}, 16},              // R
          {4, 1, 0, 100, 110, {1, 1, 2, 3}, 16},  // X
          {5, 1, 0, 93, 99, {1}, 16}}));          // Z
  NetSpec spec = ideal_spec();
  spec.topo = noc::Topology::mesh(2, 2);
  const std::map<std::uint32_t, std::vector<Cycle>> expected = {
      {1, {50, 40, 70, 49, 57}},
      {2, {50, 40, 70, 79, 57}},
      {3, {50, 40, 70, 79, 57}}};
  for (const auto& [window, inject] : expected) {
    ReplayConfig cfg;
    cfg.dependency_window = window;
    cfg.max_iterations = 1;
    EXPECT_EQ(run_replay(rt, spec, cfg).result.inject_time, inject)
        << "window " << window;
  }
}

TEST(Replay, WindowZeroFirstPassIsNaive) {
  const auto exec = run_execution(small_app("fft"), ideal_spec(), small_sys());
  ReplayConfig cfg;
  cfg.dependency_window = 0;
  cfg.max_iterations = 1;
  const auto rep = run_replay(ReplayTrace(exec.trace), ideal_spec(), cfg);
  for (std::size_t i = 0; i < exec.trace.records.size(); ++i) {
    EXPECT_EQ(rep.result.inject_time[i], exec.trace.records.inject[i]);
  }
}

TEST(Replay, TruncatedWindowConvergesWithIterations) {
  const auto exec = run_execution(small_app("fft"), ideal_spec(1), small_sys());
  ReplayConfig cfg;
  cfg.dependency_window = 1;
  cfg.max_iterations = 12;
  const ReplayTrace rt(exec.trace);
  const auto rep = run_replay(rt, ideal_spec(20), cfg);
  EXPECT_GT(rep.result.iterations, 1);
  EXPECT_LE(rep.result.iterations, 12);
  // Converged result must closely match the full-window single-pass result.
  const auto full = run_replay(rt, ideal_spec(20), {});
  const double rt_gap =
      std::abs(static_cast<double>(rep.result.runtime) -
               static_cast<double>(full.result.runtime)) /
      static_cast<double>(full.result.runtime);
  EXPECT_LT(rt_gap, 0.05);
}

TEST(Replay, ReplayIsDeterministic) {
  const auto exec = run_execution(small_app("lu"), enoc_spec(), small_sys());
  const ReplayTrace rt(exec.trace);
  const auto a = run_replay(rt, enoc_spec(), {});
  const auto b = run_replay(rt, enoc_spec(), {});
  EXPECT_EQ(a.result.inject_time, b.result.inject_time);
  EXPECT_EQ(a.result.arrive_time, b.result.arrive_time);
}

TEST(Replay, EmptyTraceYieldsEmptyResult) {
  trace::Trace t;
  t.nodes = 4;
  const auto res = run_replay(ReplayTrace(t), ideal_spec(), {}).result;
  EXPECT_TRUE(res.inject_time.empty());
  EXPECT_EQ(res.runtime, 0u);
}

TEST(Replay, MismatchedNetworkSizeThrows) {
  const auto exec = run_execution(small_app("fft"), ideal_spec(), small_sys());
  NetSpec wrong = ideal_spec();
  wrong.topo = noc::Topology::mesh(2, 2);
  EXPECT_THROW(run_replay(ReplayTrace(exec.trace), wrong, {}),
               std::invalid_argument);
}

TEST(ErrorMetrics, IdenticalRunsZeroError) {
  RunSummary s;
  s.messages = 10;
  s.mean_latency = 20;
  s.p50_latency = 18;
  s.p99_latency = 60;
  s.runtime = 1000;
  const auto e = compare(s, s);
  EXPECT_DOUBLE_EQ(e.worst(), 0.0);
}

TEST(ErrorMetrics, RelativeErrorComputation) {
  RunSummary truth;
  truth.mean_latency = 100;
  truth.p50_latency = 100;
  truth.p99_latency = 100;
  truth.runtime = 1000;
  RunSummary model = truth;
  model.mean_latency = 110;
  model.runtime = 800;
  const auto e = compare(truth, model);
  EXPECT_NEAR(e.mean_latency_err, 0.1, 1e-12);
  EXPECT_NEAR(e.runtime_err, 0.2, 1e-12);
  EXPECT_NEAR(e.worst(), 0.2, 1e-12);
}

// Zero-truth components fall back to the absolute error |model| (an exact
// match still scores 0), so a degenerate metric can't pin the report at a
// constant and worst() stays monotone in the size of the miss.
TEST(ErrorMetrics, ZeroTruthUsesAbsoluteError) {
  RunSummary truth;  // everything zero
  RunSummary exact = truth;
  const auto e0 = compare(truth, exact);
  EXPECT_DOUBLE_EQ(e0.worst(), 0.0);

  RunSummary small = truth;
  small.mean_latency = 2.0;
  RunSummary big = truth;
  big.mean_latency = 50.0;
  const auto es = compare(truth, small);
  const auto eb = compare(truth, big);
  EXPECT_NEAR(es.mean_latency_err, 2.0, 1e-12);
  EXPECT_NEAR(eb.mean_latency_err, 50.0, 1e-12);
  EXPECT_LT(es.worst(), eb.worst());  // monotone in the miss size
}

TEST(ErrorMetrics, ZeroTruthComponentsAreIndependent) {
  RunSummary truth;
  truth.mean_latency = 100;
  truth.p50_latency = 0;  // degenerate component
  truth.p99_latency = 100;
  truth.runtime = 1000;
  RunSummary model = truth;
  model.p50_latency = 7;
  model.runtime = 1100;
  const auto e = compare(truth, model);
  EXPECT_NEAR(e.p50_latency_err, 7.0, 1e-12);   // absolute fallback
  EXPECT_NEAR(e.runtime_err, 0.1, 1e-12);       // ordinary relative error
  EXPECT_DOUBLE_EQ(e.mean_latency_err, 0.0);
}

}  // namespace
}  // namespace sctm::core
