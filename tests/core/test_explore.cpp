#include "core/explore.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace sctm::core {
namespace {

ReplayTrace capture_fft() {
  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  NetSpec spec;
  spec.kind = NetKind::kEnoc;
  return ReplayTrace(run_execution(app, spec, {}).trace);
}

ExploreConfig on_threads(unsigned threads) {
  ExploreConfig cfg;
  cfg.threads = threads;
  return cfg;
}

std::vector<Candidate> small_space() {
  std::vector<Candidate> out;
  for (const auto kind : {NetKind::kEnoc, NetKind::kOnocToken,
                          NetKind::kOnocSwmr}) {
    NetSpec s;
    s.kind = kind;
    out.push_back({to_string(kind), s});
  }
  NetSpec fat;
  fat.kind = NetKind::kOnocSwmr;
  fat.onoc.wavelengths = 64;
  out.push_back({"swmr-64", fat});
  return out;
}

TEST(Explore, EvaluatesEveryCandidate) {
  const auto rt = capture_fft();
  const auto results = explore(rt, small_space());
  EXPECT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_GT(r.runtime, 0u);
    EXPECT_GT(r.mean_latency, 0.0);
  }
}

TEST(Explore, SortedByRuntime) {
  const auto rt = capture_fft();
  const auto results = explore(rt, small_space());
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i - 1].runtime, results[i].runtime);
  }
}

TEST(Explore, ThreadCountInvariant) {
  // One worker with one long-lived session versus the full hardware pool
  // (threads=0 -> default_parallelism()): the partitioning of candidates
  // onto sessions — and therefore which results come from a pure reset
  // versus a rebind versus a fresh session — must not leak into any metric.
  const auto rt = capture_fft();
  const auto serial = explore(rt, small_space(), on_threads(1));
  const auto parallel = explore(rt, small_space(), on_threads(0));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].name, parallel[i].name);
    EXPECT_EQ(serial[i].runtime, parallel[i].runtime);
    EXPECT_DOUBLE_EQ(serial[i].mean_latency, parallel[i].mean_latency);
    EXPECT_EQ(serial[i].p99_latency, parallel[i].p99_latency);
    EXPECT_EQ(serial[i].iterations, parallel[i].iterations);
  }
}

TEST(Explore, EqualSpecCandidatesYieldIdenticalResults) {
  // Duplicated specs interleaved with a different one drive a single worker
  // session through both reuse paths: pure reset (equal spec follows equal
  // spec) and rebind (spec changes, then changes back). Every duplicate must
  // score exactly like the first evaluation of its spec.
  const auto rt = capture_fft();
  NetSpec enoc;
  enoc.kind = NetKind::kEnoc;
  NetSpec swmr;
  swmr.kind = NetKind::kOnocSwmr;
  const std::vector<Candidate> space = {
      {"enoc-a", enoc}, {"enoc-b", enoc}, {"swmr", swmr}, {"enoc-c", enoc}};
  const auto results = explore(rt, space, on_threads(1));
  ASSERT_EQ(results.size(), 4u);
  const ExploreResult* first = nullptr;
  for (const auto& r : results) {
    if (r.name.rfind("enoc-", 0) != 0) continue;
    if (first == nullptr) {
      first = &r;
      continue;
    }
    EXPECT_EQ(r.runtime, first->runtime) << r.name;
    EXPECT_DOUBLE_EQ(r.mean_latency, first->mean_latency) << r.name;
    EXPECT_EQ(r.p99_latency, first->p99_latency) << r.name;
    EXPECT_EQ(r.iterations, first->iterations) << r.name;
  }
}

TEST(Explore, EmptySpaceIsAnError) {
  const auto rt = capture_fft();
  EXPECT_THROW(explore(rt, {}), std::invalid_argument);
}

TEST(Explore, RepeatedCandidateNameIsAnError) {
  const auto rt = capture_fft();
  auto space = small_space();
  space.push_back(space.front());
  try {
    explore(rt, space);
    FAIL() << "a repeated candidate name was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'enoc' repeats"), std::string::npos)
        << e.what();
  }
}

TEST(Explore, MoreWavelengthsRankHigher) {
  const auto rt = capture_fft();
  std::vector<Candidate> space;
  for (const int l : {8, 64}) {
    NetSpec s;
    s.kind = NetKind::kOnocSwmr;
    s.onoc.wavelengths = l;
    space.push_back({"l" + std::to_string(l), s});
  }
  const auto results = explore(rt, space);
  EXPECT_EQ(results.front().name, "l64");
}

// -- candidate-config parsing (the CLI's error surface) ----------------------

TEST(ExploreConfigParse, ValidCandidatesAndScreenKey) {
  const auto cfg = Config::from_string(
      "explore.screen.top_k = 2\n"
      "candidate.base.net.kind = enoc\n"
      "candidate.wide.net.kind = onoc-token\n"
      "candidate.wide.onoc.wavelengths = 64\n");
  const auto cands = candidates_from_config(cfg, "cands.cfg");
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].name, "base");
  EXPECT_EQ(cands[1].name, "wide");
  EXPECT_EQ(cands[1].spec.onoc.wavelengths, 64);
  EXPECT_EQ(explore_config_from(cfg).screen_top_k, 2u);
}

TEST(ExploreConfigParse, EmptyDesignSpaceIsAnError) {
  try {
    candidates_from_config(Config::from_string("# only comments\n"),
                           "empty.cfg");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("empty.cfg"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("no candidate"), std::string::npos);
  }
}

TEST(ExploreConfigParse, MalformedKeysCarrySourceLine) {
  // Line 2 holds the malformed key; the message must point at it.
  try {
    candidates_from_config(
        Config::from_string("candidate.a.net.kind = enoc\ncandidate.b = 1\n"),
        "bad.cfg");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad.cfg:2"), std::string::npos);
  }
  // Unknown top-level namespaces are errors too, not silently ignored.
  EXPECT_THROW(candidates_from_config(
                   Config::from_string("candidates.a.net.kind = enoc\n"),
                   "typo.cfg"),
               std::runtime_error);
}

TEST(ExploreConfigParse, UnbuildableCandidateNamesItself) {
  try {
    candidates_from_config(
        Config::from_string("candidate.bad.net.kind = warp-drive\n"),
        "space.cfg");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("space.cfg:1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("candidate 'bad'"),
              std::string::npos);
  }
}

// A candidate key that no parser reads is an error at its own line, not a
// silent default (here: the default wavelength count, and a 4x4 mesh).
TEST(ExploreConfigParse, UnreadCandidateKeyIsAnError) {
  const auto expect_unknown = [](const std::string& text,
                                 const std::string& message) {
    try {
      candidates_from_config(Config::from_string(text), "cands.cfg");
      FAIL() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  };
  expect_unknown(
      "candidate.a.net.kind = onoc-token\n"
      "candidate.a.onoc.wavelenths = 32\n",
      "cands.cfg:2: candidate 'a': unknown key 'onoc.wavelenths'");
  expect_unknown(
      "candidate.a.net.kind = enoc\n"
      "candidate.a.net.mesh = 16x16\n",
      "cands.cfg:2: candidate 'a': unknown key 'net.mesh'");
  // The kind alone names the optical organization, and the path-setup
  // control mesh always runs one vnet.
  expect_unknown(
      "candidate.a.net.kind = onoc-token\n"
      "candidate.a.onoc.arbitration = swmr\n",
      "cands.cfg:2: candidate 'a': unknown key 'onoc.arbitration'");
  expect_unknown(
      "candidate.a.net.kind = onoc-token\n"
      "candidate.a.onoc.pool_channels = 1\n",
      "cands.cfg:2: candidate 'a': unknown key 'onoc.pool_channels'");
  expect_unknown(
      "candidate.a.net.kind = onoc-setup\n"
      "candidate.a.onoc.ctrl_vnets = 2\n",
      "cands.cfg:2: candidate 'a': unknown key 'onoc.ctrl_vnets'");
}

// The benchmark's design spaces still parse with every key read
// (Screen.ShippedScreenConfigParses covers configs/explore_screen.cfg). The
// repo root is located from this source file, as in
// Experiment.ShippedConfigsParse.
TEST(ExploreConfigParse, ShippedCandidateFilesParse) {
  std::string root = __FILE__;
  const auto cut = root.rfind("tests/");
  root = cut == std::string::npos ? std::string() : root.substr(0, cut);
  for (const char* file :
       {"perfbench/candidates.cfg", "perfbench/fabrics.cfg"}) {
    Config cfg;
    try {
      cfg = Config::from_file(root + file);
    } catch (const std::exception&) {
      GTEST_SKIP() << file << " not reachable from build layout";
    }
    EXPECT_NO_THROW(candidates_from_config(cfg, file)) << file;
  }
}

TEST(ExploreConfigParse, ZeroTopKIsAnError) {
  EXPECT_THROW(
      explore_config_from(Config::from_string("explore.screen.top_k = 0\n")),
      std::runtime_error);
  EXPECT_THROW(
      explore_config_from(Config::from_string("explore.screen.top_k = -3\n")),
      std::runtime_error);
  EXPECT_THROW(
      explore_config_from(Config::from_string("explore.screen.topk = 2\n")),
      std::runtime_error);
}

}  // namespace
}  // namespace sctm::core
