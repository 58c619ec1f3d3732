// Failure injection on the trace pipeline: corrupt captured traces in every
// way a buggy producer or a damaged file could, and assert that ingestion
// (ReplayTrace) rejects them loudly instead of replaying garbage. Plus a
// property sweep: the self-correcting schedule respects dependencies for
// every window size.
#include <gtest/gtest.h>

#include <string>

#include "core/driver.hpp"

namespace sctm::core {
namespace {

trace::Trace good_trace() {
  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  NetSpec spec;
  spec.kind = NetKind::kIdeal;
  return run_execution(app, spec, {}).trace;
}

NetSpec ideal(Cycle per_hop = 4) {
  NetSpec s;
  s.kind = NetKind::kIdeal;
  s.ideal.per_hop_latency = per_hop;
  return s;
}

TEST(ReplayRobustness, DanglingParentRejected) {
  auto t = good_trace();
  // Point some record's dependency at a message that does not exist.
  for (auto& r : t.records) {
    if (!r.deps.empty()) {
      r.deps[0].parent = 0xdeadbeef;
      break;
    }
  }
  EXPECT_THROW(ReplayTrace{t}, std::invalid_argument);
}

TEST(ReplayRobustness, CorruptedSlackRejected) {
  auto t = good_trace();
  for (auto& r : t.records) {
    if (!r.deps.empty()) {
      r.deps[0].slack += 7;  // breaks arrival+slack == inject
      break;
    }
  }
  EXPECT_THROW(ReplayTrace{t}, std::invalid_argument);
}

TEST(ReplayRobustness, ForwardDependencyRejected) {
  auto t = good_trace();
  ASSERT_GT(t.records.size(), 10u);
  // Make an early record depend on a much later one.
  auto& victim = t.records[2];
  victim.deps.clear();
  victim.deps.push_back({t.records.back().id, 0});
  EXPECT_THROW(ReplayTrace{t}, std::invalid_argument);
}

TEST(ReplayRobustness, DuplicateIdRejected) {
  auto t = good_trace();
  ASSERT_GT(t.records.size(), 2u);
  t.records[1].id = t.records[0].id;
  EXPECT_THROW(ReplayTrace{t}, std::invalid_argument);
}

TEST(ReplayRobustness, CorruptedTimestampRejected) {
  auto t = good_trace();
  for (auto& r : t.records) {
    if (!r.deps.empty()) {
      r.inject_time += 3;  // slack no longer reconstructs the injection
      break;
    }
  }
  EXPECT_THROW(ReplayTrace{t}, std::invalid_argument);
}

TEST(ReplayRobustness, InvalidEndpointRejectedAtLoad) {
  auto t = good_trace();
  t.records[3].dst = 99;  // off the 16-node fabric
  try {
    const ReplayTrace rt(t);
    FAIL() << "endpoint 99 accepted on a 16-node trace";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record 3 (id " + std::to_string(t.records[3].id)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("endpoint 99"), std::string::npos) << what;
  }
}

class WindowSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WindowSweep, DependenciesRespectedAtEveryWindow) {
  static const ReplayTrace rt(good_trace());
  ReplayConfig cfg;
  cfg.dependency_window = GetParam();
  cfg.max_iterations = 8;
  const auto rep = run_replay(rt, ideal(8), cfg);
  // With any window and iteration budget, the *kept* (enforced) deps must
  // hold exactly; with the full window, all of them.
  std::size_t violations = 0;
  if (GetParam() >= 16) {
    for (std::uint32_t i = 0; i < rt.size(); ++i) {
      for (std::uint32_t k = 0; k < rt.dep_count(i); ++k) {
        const auto p = rt.dep_parent_index(i, k);
        if (rep.result.inject_time[i] <
            rep.result.arrive_time[p] + rt.deps_begin(i)[k].slack) {
          ++violations;
        }
      }
    }
  }
  EXPECT_EQ(violations, 0u);
  // All delivered, sane runtime.
  for (const auto a : rep.result.arrive_time) EXPECT_NE(a, kNoCycle);
  EXPECT_GT(rep.result.runtime, 0u);
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 8u, 16u, 64u));

}  // namespace
}  // namespace sctm::core
