// Failure injection on the trace pipeline: corrupt captured traces in every
// way a buggy producer or a damaged file could, and assert that ingestion
// rejects them loudly instead of replaying garbage. Ids, endpoints and
// forward references are corrupted in the in-memory trace and reach replay
// in memory and through v1 and v2 files alike; a parent id, a slack or an
// injection time that no longer agree are corrupted in the files' own form
// (the in-memory trace holds parent indices and no slack), below the Trace.
// Plus a property sweep: at every window size, the self-correcting schedule
// respects each record's kept (smallest-slack) dependencies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "core/driver.hpp"
#include "core/replay_session.hpp"
#include "support/trace_builder.hpp"
#include "trace/trace_io.hpp"

namespace sctm::core {
namespace {

/// A file path of its own for each test and format, since tests run in
/// parallel.
std::string scratch_path(const char* format) {
  return std::string("/tmp/sctm_robustness_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "." + format;
}

/// Loads `bytes` for replay from a file, as `sctm_cli replay` does.
ReplayTrace load_file(const std::string& bytes, const char* format) {
  const std::string path = scratch_path(format);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  struct Remove {
    const std::string& path;
    ~Remove() { std::remove(path.c_str()); }
  } remove{path};
  return load_replay_trace(path);
}

ReplayTrace v1_file(const fixtures::FileTrace& f) {
  return load_file(fixtures::v1_bytes(f), "trc");
}

/// In 16-record chunks, so that the load decodes it on several threads.
ReplayTrace v2_file(const fixtures::FileTrace& f) {
  return load_file(fixtures::v2_bytes(f, /*chunk_records=*/16), "trc2");
}

/// The two file formats a stored trace reaches replay through, by name.
constexpr std::pair<const char*, ReplayTrace (*)(const fixtures::FileTrace&)>
    kFileLoaders[] = {{"v1 file", v1_file},
                      {"v2 file in 16-record chunks", v2_file}};

/// Every way a trace reaches replay, by name.
const std::vector<
    std::pair<const char*, std::function<ReplayTrace(const trace::Trace&)>>>
    kLoaders = {
        {"in memory", [](const trace::Trace& t) { return ReplayTrace(t); }},
        {"v1 file",
         [](const trace::Trace& t) { return v1_file(fixtures::file_form(t)); }},
        {"v2 file in 16-record chunks",
         [](const trace::Trace& t) { return v2_file(fixtures::file_form(t)); }},
};

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

/// The file form of good_trace() and its first record with a dependency.
std::pair<fixtures::FileTrace, fixtures::FileRecord*> first_with_deps() {
  std::pair<fixtures::FileTrace, fixtures::FileRecord*> out{
      fixtures::file_form(good_trace()), nullptr};
  for (auto& r : out.first.records) {
    if (!r.deps.empty()) {
      out.second = &r;
      break;
    }
  }
  return out;
}

/// Every file loader rejects `f` with a message containing `what`.
void expect_files_rejected(const fixtures::FileTrace& f,
                           const std::string& what) {
  for (const auto& [how, load] : kFileLoaders) {
    try {
      load(f);
      ADD_FAILURE() << "accepted through a " << how;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << how << ": " << e.what();
    }
  }
}

TEST(ReplayRobustness, DanglingParentRejected) {
  // Point some record's dependency at a message that does not exist.
  auto [f, victim] = first_with_deps();
  ASSERT_NE(victim, nullptr);
  victim->deps[0].parent = 0xdeadbeef;
  expect_files_rejected(f, "unknown parent id 3735928559");
}

TEST(ReplayRobustness, CorruptedSlackRejected) {
  auto [f, victim] = first_with_deps();
  ASSERT_NE(victim, nullptr);
  victim->deps[0].slack += 7;  // breaks arrival+slack == inject
  expect_files_rejected(f, "arrival + slack does not reproduce the injection");
}

TEST(ReplayRobustness, ForwardDependencyRejected) {
  auto t = good_trace();
  ASSERT_GT(t.records.size(), 10u);
  // Make an early record depend on a much later one.
  const auto last = static_cast<std::uint32_t>(t.records.size() - 1);
  fixtures::replace_parents(t, 2, {last});
  for (const auto& [how, load] : kLoaders) {
    EXPECT_THROW(load(t), std::invalid_argument) << how;
  }
}

TEST(ReplayRobustness, DuplicateIdRejected) {
  auto t = good_trace();
  ASSERT_GT(t.records.size(), 2u);
  t.records.id[1] = t.records.id[0];
  for (const auto& [how, load] : kLoaders) {
    EXPECT_THROW(load(t), std::invalid_argument) << how;
  }
}

TEST(ReplayRobustness, CorruptedTimestampRejected) {
  auto [f, victim] = first_with_deps();
  ASSERT_NE(victim, nullptr);
  victim->fields.inject_time += 3;  // slack no longer reconstructs it
  expect_files_rejected(f, "arrival + slack does not reproduce the injection");
}

TEST(ReplayRobustness, InvalidEndpointRejectedAtLoad) {
  auto t = good_trace();
  t.records.dst[3] = 99;  // off the 16-node fabric
  for (const auto& [how, load] : kLoaders) {
    try {
      const ReplayTrace rt = load(t);
      FAIL() << "endpoint 99 accepted on a 16-node trace " << how;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("record 3 (id " + std::to_string(t.records.id[3])),
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

// Parents (record indices) of record i's dependencies enforced online at
// window w: the w smallest by (slack, parent id), ranked here from the
// source trace rather than through the engine's own kept set.
std::vector<std::uint32_t> kept_at(const trace::Records& r, std::size_t i,
                                   std::uint32_t w) {
  std::vector<std::uint32_t> parents(r.parent.begin() + r.dep_offset[i],
                                     r.parent.begin() + r.dep_offset[i + 1]);
  std::stable_sort(parents.begin(), parents.end(), [&](auto a, auto b) {
    return std::tuple(r.slack(i, a), r.id[a]) <
           std::tuple(r.slack(i, b), r.id[b]);
  });
  parents.resize(std::min<std::size_t>(parents.size(), w));
  return parents;
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
    const trace::Records& r = t.records;
    for (std::size_t i = 0; i < r.size(); ++i) {
      for (const std::uint32_t p : kept_at(r, i, w)) {
        if (res.inject_time[i] < res.arrive_time[p] + r.slack(i, p)) ++v;
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
