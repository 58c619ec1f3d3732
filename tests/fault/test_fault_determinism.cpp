// Determinism matrix for fault injection (DESIGN.md §11): with every fault
// class armed, on every network kind, a reused session must replay the fresh
// fault schedule bit-identically. The suite also pins the zero-rate
// identity (an inert FaultSpec leaves results and stats byte-identical to a
// run without the fault field), rebinds across fault regimes, and the
// manifest echo of the fault regime in the metrics document.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/replay_session.hpp"
#include "fault/fault_spec.hpp"
#include "tracestore/trace_store.hpp"

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

/// Every fault class armed at rates that actually fire on the small trace.
/// The drift is deep in the Q-factor cliff on purpose: within the design
/// margin the BER stays ~1e-12 and no optical corruption would ever fire.
fault::FaultSpec all_faults() {
  fault::FaultSpec fs;
  fs.seed = 7;
  fs.enoc_flit_corrupt_rate = 0.02;
  fs.enoc_flit_drop_rate = 0.01;
  fs.enoc_link_stuck_rate = 0.002;
  fs.onoc_token_loss_rate = 0.02;
  fs.onoc_reservation_loss_rate = 0.05;
  fs.onoc_ring_drift_sigma_c = 25.0;
  return fs;
}

NetSpec faulted_spec(NetKind kind) {
  NetSpec s;
  s.kind = kind;
  s.fault = all_faults();
  return s;
}

constexpr NetKind kAllKinds[] = {NetKind::kIdeal,     NetKind::kEnoc,
                                 NetKind::kOnocToken, NetKind::kOnocSetup,
                                 NetKind::kOnocSwmr,  NetKind::kHybrid};

const ReplayTrace& shared_rt() {
  static const trace::Trace trace = run_execution(small_app("jacobi"),
                                                  NetSpec{}, small_sys())
                                        .trace;
  static const ReplayTrace rt(trace);
  return rt;
}

struct MatrixRun {
  ReplayResult result;
  std::string stats_report;
};

MatrixRun run_full(const NetSpec& spec) {
  ReplaySession session(shared_rt(), spec, ReplayConfig{});
  session.run();
  MatrixRun out;
  out.stats_report = session.result().stats.report();
  out.result = session.take_result();
  return out;
}

class FaultedReplayMatrix : public ::testing::TestWithParam<NetKind> {};

// A reused session must replay the fresh fault schedule: run() twice on one
// session, both bit-identical to a freshly built replay.
TEST_P(FaultedReplayMatrix, ResetReuseReplaysTheFreshFaultSchedule) {
  const NetSpec spec = faulted_spec(GetParam());
  const ReplayConfig cfg;
  const ReplayResult fresh = run_replay(shared_rt(), spec, cfg).result;

  ReplaySession session(shared_rt(), spec, cfg);
  for (const char* pass : {"first run", "rerun after reset"}) {
    const ReplayResult& got = session.run();
    EXPECT_EQ(got.inject_time, fresh.inject_time) << pass;
    EXPECT_EQ(got.arrive_time, fresh.arrive_time) << pass;
    EXPECT_EQ(got.runtime, fresh.runtime) << pass;
    EXPECT_EQ(got.events, fresh.events) << pass;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FaultedReplayMatrix,
                         ::testing::ValuesIn(kAllKinds), [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Rebinding to a different fault regime must rebuild the fault streams: the
// reused session matches a fresh build for the new spec, and walking back to
// the original regime reproduces the original results exactly.
TEST(FaultedReplay, RebindAcrossFaultRegimesMatchesFresh) {
  const ReplayConfig cfg;
  NetSpec clean;
  clean.kind = NetKind::kEnoc;
  NetSpec faulted = faulted_spec(NetKind::kEnoc);
  NetSpec reseeded = faulted;
  reseeded.fault = reseeded.fault.with_seed(99);

  ReplaySession session(shared_rt(), clean, cfg);
  for (const NetSpec* spec : {&faulted, &reseeded, &clean}) {
    session.rebind(*spec);
    const ReplayResult fresh = run_replay(shared_rt(), *spec, cfg).result;
    const ReplayResult& got = session.run();
    const std::string what = spec->describe();
    EXPECT_EQ(got.inject_time, fresh.inject_time) << what;
    EXPECT_EQ(got.arrive_time, fresh.arrive_time) << what;
    EXPECT_EQ(got.runtime, fresh.runtime) << what;
  }
}

// Different fault seeds are different fault schedules (the knob is live),
// and faults visibly perturb the replay against the clean baseline.
TEST(FaultedReplay, SeedAndRegimeActuallyMatter) {
  const ReplayConfig cfg;
  NetSpec clean;
  clean.kind = NetKind::kEnoc;
  const NetSpec faulted = faulted_spec(NetKind::kEnoc);
  NetSpec reseeded = faulted;
  reseeded.fault = reseeded.fault.with_seed(99);

  const ReplayResult r_clean = run_replay(shared_rt(), clean, cfg).result;
  const ReplayResult r_fault = run_replay(shared_rt(), faulted, cfg).result;
  const ReplayResult r_seed = run_replay(shared_rt(), reseeded, cfg).result;
  EXPECT_GT(r_fault.runtime, r_clean.runtime);  // recovery costs cycles
  EXPECT_NE(r_seed.arrive_time, r_fault.arrive_time);
}

// An all-zero-rate FaultSpec (even with a non-default seed) installs no
// model: results AND the rendered stat registry are byte-identical to a spec
// without the fault field — the fault-free path is untouched.
TEST(FaultedReplay, ZeroRateSpecIsByteIdenticalToBaseline) {
  NetSpec plain;
  plain.kind = NetKind::kEnoc;
  NetSpec zero = plain;
  zero.fault.seed = 1234;  // inert: no rate armed
  ASSERT_FALSE(zero.fault.enabled());

  const MatrixRun base = run_full(plain);
  const MatrixRun zeroed = run_full(zero);
  EXPECT_EQ(zeroed.result.inject_time, base.result.inject_time);
  EXPECT_EQ(zeroed.result.arrive_time, base.result.arrive_time);
  EXPECT_EQ(zeroed.result.runtime, base.result.runtime);
  EXPECT_EQ(zeroed.stats_report, base.stats_report);
  EXPECT_EQ(zeroed.stats_report.find("fault."), std::string::npos);
}

// The metrics document names the fault regime it ran under and carries the
// fault counters; zero-rate runs echo nothing.
TEST(FaultedReplay, MetricsCarryFaultRegimeAndCounters) {
  const NetSpec spec = faulted_spec(NetKind::kEnoc);
  const ReplayConfig cfg;
  const ReplayRun run = run_replay(shared_rt(), spec, cfg);
  const RunMetrics m =
      metrics_for_replay(shared_rt(), spec, cfg, run, "test", "2026-08-09");
  const std::string json = m.to_json();
  std::string err;
  EXPECT_TRUE(validate_metrics_json(json, &err)) << err;
  EXPECT_NE(json.find("\"fault.seed\""), std::string::npos);
  EXPECT_NE(json.find("\"fault.onoc_token_loss_rate\""), std::string::npos);
  EXPECT_NE(json.find("net.fault.retransmissions"), std::string::npos);

  NetSpec clean;
  clean.kind = NetKind::kEnoc;
  const RunMetrics m0 = metrics_for_replay(shared_rt(), clean, cfg,
                                           run_replay(shared_rt(), clean, cfg),
                                           "test", "2026-08-09");
  EXPECT_EQ(m0.to_json().find("fault."), std::string::npos);
}

// Execution-driven capture with faults: the captured trace replays, and the
// fault counters ride in the execution metrics document. The capture itself
// is pinned: its content hash, runtime and kernel event count hold the ENoC
// fault schedule, whose draws follow the order in which routers emit their
// hops.
TEST(FaultedReplay, ExecutionCaptureUnderFaultsProducesReplayableTrace) {
  const NetSpec spec = faulted_spec(NetKind::kEnoc);
  const fullsys::AppParams app = small_app("fft");
  const ExecutionRun run = run_execution(app, spec, small_sys());
  EXPECT_GT(run.stats.counter_value("net.fault.retransmissions"), 0u);
  const std::uint64_t hash = tracestore::content_hash(run.trace);
  EXPECT_EQ(hash, 0x3ee1232ebecfccf1ull) << std::hex << "hash 0x" << hash;
  EXPECT_EQ(run.runtime, 3284u);
  EXPECT_EQ(run.events, 4870u);
  const RunMetrics m =
      metrics_for_execution(app, spec, run, "test", "2026-08-09");
  std::string err;
  EXPECT_TRUE(validate_metrics_json(m.to_json(), &err)) << err;

  NetSpec clean;
  clean.kind = NetKind::kEnoc;
  const ReplayRun rr = run_replay(ReplayTrace(run.trace), clean, {});
  EXPECT_GT(rr.result.runtime, 0u);
}

}  // namespace
}  // namespace sctm::core
