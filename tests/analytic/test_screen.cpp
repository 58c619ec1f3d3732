#include "analytic/screen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "core/driver.hpp"
#include "core/explore.hpp"
#include "fullsys/app.hpp"

namespace sctm::analytic {
namespace {

using core::Candidate;
using core::ExploreConfig;
using core::NetKind;
using core::NetSpec;

core::ReplayTrace capture(const std::string& app_name) {
  fullsys::AppParams app;
  app.name = app_name;
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  NetSpec spec;
  spec.kind = NetKind::kEnoc;
  return core::ReplayTrace(core::run_execution(app, spec, {}).trace);
}

/// One candidate per network kind — the design space the recall gate runs.
std::vector<Candidate> all_kinds_space() {
  std::vector<Candidate> out;
  for (const auto kind :
       {NetKind::kIdeal, NetKind::kEnoc, NetKind::kOnocToken,
        NetKind::kOnocSetup, NetKind::kOnocSwmr, NetKind::kHybrid}) {
    NetSpec s;
    s.kind = kind;
    out.push_back({core::to_string(kind), s});
  }
  return out;
}

TEST(Screen, EmptyCandidateListThrows) {
  const auto rt = capture("fft");
  EXPECT_THROW(explore_screened(rt, {}, {}), std::invalid_argument);
  ExploreConfig cfg;
  cfg.screen_top_k = 2;
  EXPECT_THROW(explore_screened(rt, {}, cfg), std::invalid_argument);
}

// Replay results map back to screened entries by name, so a repeated name
// is refused before the screen runs, as core::explore refuses it.
TEST(Screen, RepeatedCandidateNameIsAnError) {
  const auto rt = capture("fft");
  auto space = all_kinds_space();
  space.push_back(space.back());
  ExploreConfig cfg;
  cfg.screen_top_k = 2;
  try {
    explore_screened(rt, space, cfg);
    FAIL() << "a repeated candidate name was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'hybrid' repeats"),
              std::string::npos)
        << e.what();
  }
}

TEST(Screen, DisabledScreenMatchesFullExplore) {
  const auto rt = capture("fft");
  const auto space = all_kinds_space();
  const auto full = core::explore(rt, space, {});
  const auto screened = explore_screened(rt, space, {});  // top_k = 0
  ASSERT_EQ(full.size(), screened.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].name, screened[i].name);
    EXPECT_EQ(full[i].runtime, screened[i].runtime);
    EXPECT_TRUE(screened[i].replayed);
    EXPECT_EQ(screened[i].analytic_rank, 0u);  // no screen ran
  }
}

TEST(Screen, OversizedTopKDelegatesToFullReplay) {
  const auto rt = capture("fft");
  const auto space = all_kinds_space();
  ExploreConfig cfg;
  cfg.screen_top_k = space.size() + 5;
  const auto results = explore_screened(rt, space, cfg);
  for (const auto& r : results) {
    EXPECT_TRUE(r.replayed);
    EXPECT_EQ(r.analytic_rank, 0u);
  }
}

TEST(Screen, ConfirmsExactlyTopK) {
  const auto rt = capture("fft");
  const auto space = all_kinds_space();
  ExploreConfig cfg;
  cfg.screen_top_k = 2;
  const auto results = explore_screened(rt, space, cfg);
  ASSERT_EQ(results.size(), space.size());
  std::size_t replayed = 0;
  std::set<std::size_t> ranks;
  for (const auto& r : results) {
    replayed += r.replayed ? 1 : 0;
    ASSERT_GE(r.analytic_rank, 1u);
    ASSERT_LE(r.analytic_rank, space.size());
    ranks.insert(r.analytic_rank);
    if (r.replayed) {
      EXPECT_GT(r.runtime, 0u);
      // Only analytic winners get replayed.
      EXPECT_LE(r.analytic_rank, cfg.screen_top_k);
    } else {
      EXPECT_EQ(r.runtime, 0u);
      EXPECT_GT(r.est_runtime, 0.0);
    }
  }
  EXPECT_EQ(replayed, 2u);
  EXPECT_EQ(ranks.size(), space.size());  // a permutation of 1..n
  // Confirmed candidates lead the table; the analytic tail is sorted by
  // estimate.
  for (std::size_t i = 0; i + 1 < results.size(); ++i) {
    EXPECT_GE(results[i].replayed, results[i + 1].replayed);
    if (!results[i].replayed && !results[i + 1].replayed) {
      EXPECT_LE(results[i].est_runtime, results[i + 1].est_runtime);
    }
  }
}

TEST(Screen, Deterministic) {
  const auto rt = capture("lu");
  const auto space = all_kinds_space();
  ExploreConfig cfg;
  cfg.screen_top_k = 3;
  const auto a = explore_screened(rt, space, cfg);
  const auto b = explore_screened(rt, space, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].replayed, b[i].replayed);
    EXPECT_EQ(a[i].analytic_rank, b[i].analytic_rank);
    EXPECT_EQ(a[i].runtime, b[i].runtime);
    EXPECT_DOUBLE_EQ(a[i].est_runtime, b[i].est_runtime);
  }
}

TEST(Screen, TopThreeRecallAcrossShippedWorkloads) {
  // The headline accuracy gate (mirrored at bench scale by
  // fig_screen_error): for every shipped workload, at least 2 of the true
  // top-3 designs under full replay must survive a top-3 analytic screen
  // over all six network kinds.
  const auto space = all_kinds_space();
  for (const auto& app : fullsys::app_names()) {
    SCOPED_TRACE(app);
    const auto rt = capture(app);
    const auto truth = core::explore(rt, space, {});
    ExploreConfig cfg;
    cfg.screen_top_k = 3;
    const auto screened = explore_screened(rt, space, cfg);
    std::set<std::string> confirmed;
    for (const auto& r : screened) {
      if (r.replayed) confirmed.insert(r.name);
    }
    int hits = 0;
    for (std::size_t i = 0; i < 3 && i < truth.size(); ++i) {
      hits += confirmed.count(truth[i].name) ? 1 : 0;
    }
    EXPECT_GE(hits, 2) << "top-3 recall below 2/3 for " << app;
  }
}

TEST(Screen, ShippedScreenConfigParses) {
  // Locate configs/ from this source file (same resolution as
  // Experiment.ShippedConfigsParse).
  std::string root = __FILE__;
  const auto cut = root.rfind("tests/");
  root = cut == std::string::npos ? std::string() : root.substr(0, cut);
  const std::string path = root + "configs/explore_screen.cfg";
  Config cfg;
  try {
    cfg = Config::from_file(path);
  } catch (const std::exception&) {
    GTEST_SKIP() << "configs/ not reachable from build layout";
  }
  const auto candidates = core::candidates_from_config(cfg, path);
  EXPECT_GE(candidates.size(), 6u);
  const auto ecfg = core::explore_config_from(cfg);
  EXPECT_EQ(ecfg.screen_top_k, 3u);
}

}  // namespace
}  // namespace sctm::analytic
