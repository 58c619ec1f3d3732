// Failure injection on the trace pipeline: corrupt captured traces in every
// way a buggy producer or a damaged file could, and assert that ingestion
// (ReplayTrace) rejects them loudly instead of replaying garbage, in memory
// and through a v2 container alike. Plus a property sweep: at every window
// size, the self-correcting schedule respects each record's kept
// (smallest-slack) dependencies.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/driver.hpp"
#include "core/replay_session.hpp"
#include "tracestore/trace_store.hpp"

namespace sctm::core {
namespace {

ReplayTrace in_memory(const trace::Trace& t) { return ReplayTrace(t); }

/// Through a v2 container in 16-record chunks, so that the load decodes it
/// on several threads.
ReplayTrace via_v2(const trace::Trace& t) {
  std::ostringstream out;
  tracestore::write_v2(t, out, /*chunk_records=*/16);
  const std::string bytes = out.str();
  return ReplayTrace::from_store(tracestore::TraceReader(
      tracestore::memory_source(bytes.data(), bytes.size())));
}

/// The two ways a trace reaches replay, by name.
constexpr std::pair<const char*, ReplayTrace (*)(const trace::Trace&)>
    kLoaders[] = {{"in memory", in_memory},
                  {"v2 in 16-record chunks", via_v2}};

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
  for (const auto& [how, load] : kLoaders) {
    EXPECT_THROW(load(t), std::invalid_argument) << how;
  }
}

TEST(ReplayRobustness, CorruptedSlackRejected) {
  auto t = good_trace();
  for (auto& r : t.records) {
    if (!r.deps.empty()) {
      r.deps[0].slack += 7;  // breaks arrival+slack == inject
      break;
    }
  }
  for (const auto& [how, load] : kLoaders) {
    EXPECT_THROW(load(t), std::invalid_argument) << how;
  }
}

TEST(ReplayRobustness, ForwardDependencyRejected) {
  auto t = good_trace();
  ASSERT_GT(t.records.size(), 10u);
  // Make an early record depend on a much later one.
  auto& victim = t.records[2];
  victim.deps.clear();
  victim.deps.push_back({t.records.back().id, 0});
  for (const auto& [how, load] : kLoaders) {
    EXPECT_THROW(load(t), std::invalid_argument) << how;
  }
}

TEST(ReplayRobustness, DuplicateIdRejected) {
  auto t = good_trace();
  ASSERT_GT(t.records.size(), 2u);
  t.records[1].id = t.records[0].id;
  for (const auto& [how, load] : kLoaders) {
    EXPECT_THROW(load(t), std::invalid_argument) << how;
  }
}

TEST(ReplayRobustness, CorruptedTimestampRejected) {
  auto t = good_trace();
  for (auto& r : t.records) {
    if (!r.deps.empty()) {
      r.inject_time += 3;  // slack no longer reconstructs the injection
      break;
    }
  }
  for (const auto& [how, load] : kLoaders) {
    EXPECT_THROW(load(t), std::invalid_argument) << how;
  }
}

TEST(ReplayRobustness, InvalidEndpointRejectedAtLoad) {
  auto t = good_trace();
  t.records[3].dst = 99;  // off the 16-node fabric
  for (const auto& [how, load] : kLoaders) {
    try {
      const ReplayTrace rt = load(t);
      FAIL() << "endpoint 99 accepted on a 16-node trace " << how;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("record 3 (id " + std::to_string(t.records[3].id)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("endpoint 99"), std::string::npos) << what;
    }
  }
}

TEST(ReplayRobustness, NodeCountMismatchNamesBothCounts) {
  const ReplayTrace rt(good_trace());
  NetSpec wrong = ideal();
  wrong.topo = noc::Topology::mesh(6, 6);
  try {
    ReplaySession session(rt, wrong, {});
    FAIL() << "a 36-node network accepted a 16-node trace";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("network has 36 nodes"), std::string::npos) << what;
    EXPECT_NE(what.find("trace has 16"), std::string::npos) << what;
    EXPECT_NE(what.find("captured on ideal mesh 4x4"), std::string::npos)
        << what;
  }
}

// Indices into r.deps of the dependencies enforced online at window w: the
// w smallest by (slack, parent id), ranked here from the source trace
// rather than through the engine's own kept set.
std::vector<std::size_t> kept_at(const trace::TraceRecord& r,
                                 std::uint32_t w) {
  std::vector<std::size_t> order(r.deps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return std::tie(r.deps[a].slack, r.deps[a].parent) <
           std::tie(r.deps[b].slack, r.deps[b].parent);
  });
  order.resize(std::min<std::size_t>(order.size(), w));
  return order;
}

class WindowSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WindowSweep, DependenciesRespectedAtEveryWindow) {
  static const trace::Trace t = good_trace();
  static const ReplayTrace rt(t);
  const std::uint32_t w = GetParam();
  ReplayConfig cfg;
  cfg.dependency_window = w;
  cfg.max_iterations = 8;
  // Kept dependencies `res` violates (every dependency at full window).
  const auto violations = [&](const ReplayResult& res) {
    std::size_t v = 0;
    for (std::size_t i = 0; i < t.records.size(); ++i) {
      const auto& r = t.records[i];
      for (const std::size_t k : kept_at(r, w)) {
        const auto& d = r.deps[k];
        const auto p = std::lower_bound(
            t.records.begin(), t.records.end(), d.parent,
            [](const auto& rec, MsgId id) { return rec.id < id; });
        const auto pi = static_cast<std::size_t>(p - t.records.begin());
        if (res.inject_time[i] < res.arrive_time[pi] + d.slack) ++v;
      }
    }
    return v;
  };
  ReplaySession session(rt, ideal(8), cfg);
  EXPECT_EQ(violations(session.run_pass()), 0u) << "in a single pass";
  const ReplayResult& rep = session.run();
  EXPECT_EQ(violations(rep), 0u) << "after " << rep.iterations << " passes";
  // All delivered, sane runtime.
  for (const auto a : rep.arrive_time) EXPECT_NE(a, kNoCycle);
  EXPECT_GT(rep.runtime, 0u);
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 8u, 16u, 64u));

}  // namespace
}  // namespace sctm::core
