#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>

namespace sctm::core {
namespace {

TEST(Experiment, NetKindParsing) {
  // One spelling table feeds both the parser and to_string.
  for (const auto& [kind, name] : kNetKindNames) {
    const auto spec = netspec_from_config(
        Config::from_string(std::string("target.kind = ") + name + "\n"),
        "target");
    EXPECT_EQ(spec.kind, kind) << name;
    EXPECT_STREQ(to_string(kind), name);
  }
  try {
    (void)netspec_from_config(
        Config::from_string("target.kind = carrier-pigeon\n"), "target");
    FAIL() << "accepted carrier-pigeon";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "target.kind (line 1): unknown value 'carrier-pigeon' "
                 "(known: ideal, enoc, onoc-token, onoc-setup, onoc-swmr, "
                 "hybrid)");
  }
}

TEST(Experiment, NetSpecFromConfigDefaults) {
  const auto cfg = Config::from_string("target.kind = onoc-swmr\n");
  const auto spec = netspec_from_config(cfg, "target");
  EXPECT_EQ(spec.kind, NetKind::kOnocSwmr);
  EXPECT_EQ(spec.topo.node_count(), 16);
}

TEST(Experiment, NetSpecHonorsMeshAndModuleParams) {
  const auto cfg = Config::from_string(
      "target.kind = enoc\n"
      "net.mesh_width = 8\n"
      "net.mesh_height = 8\n"
      "enoc.vcs_per_vnet = 4\n"
      "enoc.buffer_depth = 8\n"
      "onoc.wavelengths = 64\n");
  const auto spec = netspec_from_config(cfg, "target");
  EXPECT_EQ(spec.topo.node_count(), 64);
  EXPECT_EQ(spec.enoc.vcs_per_vnet, 4);
  EXPECT_EQ(spec.enoc.buffer_depth, 8);
  EXPECT_EQ(spec.onoc.wavelengths, 64);
}

TEST(Experiment, TopologyFromConfig) {
  const auto mesh3d = topology_from_config(Config::from_string(
      "net.topology = mesh3d\nnet.mesh_width = 4\nnet.mesh_height = 4\n"
      "net.mesh_depth = 2\n"));
  EXPECT_EQ(mesh3d.kind(), noc::Topology::Kind::kMesh3D);
  EXPECT_EQ(mesh3d.node_count(), 32);

  const auto torus = topology_from_config(Config::from_string(
      "net.topology = torus\nnet.mesh_width = 3\nnet.mesh_height = 3\n"));
  EXPECT_EQ(torus.kind(), noc::Topology::Kind::kTorus);

  const auto ring = topology_from_config(
      Config::from_string("net.topology = ring\nnet.ring_nodes = 6\n"));
  EXPECT_EQ(ring.kind(), noc::Topology::Kind::kRing);
  EXPECT_EQ(ring.node_count(), 6);

  // Defaults preserved: no net.topology key means the legacy 4x4 mesh.
  const auto legacy = topology_from_config(Config::from_string(""));
  EXPECT_EQ(legacy, noc::Topology::mesh(4, 4));
}

TEST(Experiment, TopologyFromConfigErrors) {
  // Unknown kinds and a missing file key error with the config line.
  try {
    (void)topology_from_config(
        Config::from_string("net.kind = enoc\nnet.topology = klein-bottle\n"));
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(
      (void)topology_from_config(Config::from_string("net.topology = file\n")),
      std::runtime_error);
}

// Every integer key the experiment parsers read is range-checked against its
// field: -1 must not become a full dependency window, nor 2^32 + 16 cores 16.
TEST(Experiment, ParsersRejectOutOfRangeIntegersNamingTheKey) {
  const auto expect_rejects = [](const std::string& line, auto parse) {
    try {
      (void)parse(Config::from_string(line + "\n"));
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(line.substr(0, line.find(' '))),
                std::string::npos)
          << e.what();
    }
  };
  const auto replay = [](const Config& c) { return replay_from_config(c); };
  const auto app = [](const Config& c) { return app_from_config(c); };
  const auto net = [](const Config& c) {
    return netspec_from_config(c, "target");
  };
  expect_rejects("replay.window = -1", replay);
  expect_rejects("replay.max_iterations = 4294967297", replay);
  expect_rejects("app.cores = 4294967312", app);
  expect_rejects("app.seed = -1", app);
  expect_rejects("net.mesh_width = 4294967300", net);
  expect_rejects("ideal.base_latency = -1", net);
  expect_rejects("hybrid.size_threshold = -1", net);
}

TEST(Experiment, DefaultRoutingFollowsTopology) {
  // No enoc.routing key: the spec leaves the algorithm unset and the built
  // network's routing table resolves the fabric's natural one (the hybrid's
  // electrical plane, built from the same block, too); a 2D mesh still gets
  // XY.
  const auto spec3d = netspec_from_config(
      Config::from_string("target.kind = hybrid\nnet.topology = torus3d\n"),
      "target");
  EXPECT_EQ(spec3d.enoc.routing, std::nullopt);
  Simulator sim;
  const auto hybrid = make_factory(spec3d)(sim);
  EXPECT_EQ(static_cast<onoc::HybridNetwork&>(*hybrid)
                .electrical()
                .routes()
                .algo(),
            noc::RoutingAlgo::kXyz);
  const auto spec2d = netspec_from_config(
      Config::from_string("target.kind = enoc\n"), "target");
  const auto enoc2d = make_factory(spec2d)(sim);
  EXPECT_EQ(static_cast<enoc::EnocNetwork&>(*enoc2d).routes().algo(),
            noc::RoutingAlgo::kXY);
  // An explicit key always wins.
  const auto explicit_spec = netspec_from_config(
      Config::from_string("target.kind = enoc\nenoc.routing = yx\n"),
      "target");
  const auto yx = make_factory(explicit_spec)(sim);
  EXPECT_EQ(static_cast<enoc::EnocNetwork&>(*yx).routes().algo(),
            noc::RoutingAlgo::kYX);
}

// An explicit algorithm the fabric cannot use fails when the network is
// built, naming the network and the fabric, for every kind that routes
// electrically: the ONoC control mesh must not swap in the fabric's own
// algorithm behind the config's back.
TEST(Experiment, IncompatibleRoutingFailsOnEveryElectricalKind) {
  for (const char* kind : {"enoc", "hybrid", "onoc-setup"}) {
    const auto cfg = Config::from_string(
        std::string("experiment.mode = exec\napp.lines_per_core = 2\n"
                    "app.iterations = 1\ntarget.kind = ") +
        kind + "\nnet.topology = torus\nenoc.routing = xy\n");
    try {
      (void)run_experiment(cfg);
      ADD_FAILURE() << kind << " ran with xy routing on a torus";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("routing algorithm incompatible with torus 4x4"),
                std::string::npos)
          << kind << ": " << what;
    }
  }
}

TEST(Experiment, AppFromConfig) {
  const auto cfg = Config::from_string(
      "app.name = sort\napp.cores = 16\napp.lines_per_core = 8\n"
      "app.iterations = 3\napp.seed = 42\n");
  const auto app = app_from_config(cfg);
  EXPECT_EQ(app.name, "sort");
  EXPECT_EQ(app.iterations, 3);
  EXPECT_EQ(app.seed, 42u);
}

// An app build_app cannot make fails at parse, naming the key and its line,
// before any network is built.
TEST(Experiment, AppFromConfigRejectsWhatBuildAppCannotMake) {
  for (const std::string line :
       {"app.name = ffft", "app.cores = 1", "app.lines_per_core = 0",
        "app.iterations = -2"}) {
    try {
      (void)app_from_config(Config::from_string("app.seed = 3\n" + line));
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      const std::string key = line.substr(0, line.find(' '));
      EXPECT_NE(std::string(e.what()).find(key + " (line 2): "),
                std::string::npos)
          << e.what();
    }
  }
  try {
    (void)app_from_config(Config::from_string("app.name = ffft\n"));
    ADD_FAILURE() << "accepted app.name = ffft";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("known: jacobi, fft,"),
              std::string::npos)
        << e.what();
  }
}

// One op stream per node: a core count other than the fabric's names both.
TEST(Experiment, RunExecutionRejectsCoresOtherThanTheFabricNodes) {
  fullsys::AppParams app;
  app.cores = 8;
  NetSpec spec;  // 4x4 mesh
  try {
    (void)run_execution(app, spec, {});
    ADD_FAILURE() << "ran 8 cores on 16 nodes";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("app.cores = 8"), std::string::npos) << what;
    EXPECT_NE(what.find("mesh 4x4 has 16 nodes"), std::string::npos) << what;
  }
}

TEST(Experiment, ReplayFromConfig) {
  const auto cfg = Config::from_string(
      "replay.mode = naive\nreplay.window = 2\nreplay.max_iterations = 5\n");
  const auto rc = replay_from_config(cfg);
  EXPECT_EQ(rc.mode, ReplayMode::kNaive);
  EXPECT_EQ(rc.dependency_window, 2u);
  EXPECT_EQ(rc.max_iterations, 5);
  EXPECT_THROW(
      replay_from_config(Config::from_string("replay.mode = psychic\n")),
      std::invalid_argument);
}

TEST(Experiment, ReplayFromConfigRejectsMaxIterationsBelowOne) {
  // 0 or -3 passes would silently run one pass while the manifest records
  // the configured value.
  for (const char* text :
       {"replay.max_iterations = 0\n", "replay.window = 1\n"
                                         "replay.max_iterations = -3\n"}) {
    try {
      (void)replay_from_config(Config::from_string(text));
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("replay.max_iterations (line "),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(replay_from_config(
                Config::from_string("replay.max_iterations = 1\n"))
                .max_iterations,
            1);
}

TEST(Experiment, ExecModeProducesMetrics) {
  const auto cfg = Config::from_string(
      "experiment.mode = exec\napp.name = fft\napp.lines_per_core = 8\n"
      "app.iterations = 1\ntarget.kind = ideal\n");
  const auto t = run_experiment(cfg);
  EXPECT_GE(t.row_count(), 4u);
  EXPECT_NE(t.to_ascii().find("runtime"), std::string::npos);
}

TEST(Experiment, ReplayModeRunsPipeline) {
  const auto cfg = Config::from_string(
      "experiment.mode = replay\napp.name = jacobi\napp.lines_per_core = 8\n"
      "app.iterations = 1\ncapture.kind = ideal\ntarget.kind = onoc-token\n");
  const auto t = run_experiment(cfg);
  EXPECT_NE(t.to_ascii().find("iterations"), std::string::npos);
}

TEST(Experiment, AccuracyModeComparesModels) {
  const auto cfg = Config::from_string(
      "experiment.mode = accuracy\napp.name = fft\napp.lines_per_core = 8\n"
      "app.iterations = 1\ncapture.kind = ideal\ntarget.kind = ideal\n"
      "ideal.per_hop_latency = 1\n");
  const auto t = run_experiment(cfg);
  EXPECT_EQ(t.row_count(), 2u);  // naive + sctm rows
}

TEST(Experiment, UnknownModeThrows) {
  const auto cfg = Config::from_string("experiment.mode = vibes\n");
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

// A key no parser reads fails the experiment before anything runs, naming
// the key and its line, instead of silently meaning the default (fft on a
// 4x4 mesh at 16 lines per core).
TEST(Experiment, UnreadKeyFailsBeforeAnythingRuns) {
  const auto expect_unknown = [](const std::string& text,
                                 const std::string& message) {
    try {
      (void)run_experiment(Config::from_string(text));
      ADD_FAILURE() << "ran: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  };
  expect_unknown("experiment.mode = exec\napp.name = fft\napp.lines = 4\n",
                 "unknown key 'app.lines' (line 3); known app.* keys: ");
  expect_unknown("target.kind = enoc\nnet.mesh_widht = 8\n",
                 "unknown key 'net.mesh_widht' (line 2)");
  // The kind alone names the optical organization, no kind builds a shared
  // pool, and the path-setup control mesh is the enoc.* block with one vnet
  // (it carries only control packets): none of these keys is read.
  expect_unknown("target.kind = onoc-token\nonoc.arbitration = swmr\n",
                 "unknown key 'onoc.arbitration' (line 2)");
  expect_unknown("target.kind = onoc-token\nonoc.pool_channels = 1\n",
                 "unknown key 'onoc.pool_channels' (line 2)");
  expect_unknown("target.kind = onoc-setup\nonoc.ctrl_vnets = 0\n",
                 "unknown key 'onoc.ctrl_vnets' (line 2)");
}

// Every section parses before the first simulated cycle, whatever the mode:
// a bad mode, a bad replay section in exec mode or a bad capture kind all
// fail in experiment_from_config, which runs nothing.
TEST(Experiment, ParseStepReadsEverySectionInEveryMode) {
  EXPECT_THROW((void)experiment_from_config(
                   Config::from_string("experiment.mode = vibes\n")),
               std::invalid_argument);
  EXPECT_THROW(
      (void)experiment_from_config(Config::from_string(
          "experiment.mode = exec\nreplay.max_iterations = 0\n")),
      std::invalid_argument);
  EXPECT_THROW((void)experiment_from_config(Config::from_string(
                   "experiment.mode = exec\ncapture.kind = warp\n")),
               std::invalid_argument);
  const Experiment e = experiment_from_config(Config::from_string(
      "experiment.mode = accuracy\napp.name = lu\ncapture.kind = ideal\n"
      "target.kind = onoc-swmr\nreplay.window = 2\n"));
  EXPECT_EQ(e.mode, ExperimentMode::kAccuracy);
  EXPECT_EQ(e.app.name, "lu");
  EXPECT_EQ(e.capture.kind, NetKind::kIdeal);
  EXPECT_EQ(e.target.kind, NetKind::kOnocSwmr);
  EXPECT_EQ(e.replay.dependency_window, 2u);
}

TEST(Experiment, ShippedConfigsParse) {
  // Locate the repo's configs/ from this source file's path (compilers pass
  // absolute paths under CMake), so the test still bites when ctest runs
  // from the build tree; fall back to a cwd-relative path otherwise.
  std::string root = __FILE__;
  const auto cut = root.rfind("tests/");
  root = cut == std::string::npos ? std::string() : root.substr(0, cut);
  for (const char* name :
       {"accuracy_fft_onoc.cfg", "exec_sort_hybrid.cfg", "replay_lu_swmr.cfg",
        "exec_jacobi_mesh3d.cfg", "replay_fft_file_topo.cfg"}) {
    const std::string path = root + "configs/" + name;
    SCOPED_TRACE(path);
    Config cfg;
    try {
      cfg = Config::from_file(path);
    } catch (const std::exception&) {
      // Neither resolution found the file; tolerate exotic build layouts.
      continue;
    }
    // Shipped configs reference topology files repo-root relative; anchor
    // them to the same root the config was found under.
    if (cfg.contains("net.topology.file")) {
      cfg.set("net.topology.file", root + cfg.get_string("net.topology.file"));
    }
    // Parses clean through the strict vocabulary checks (duplicate keys and
    // unknown fault.* keys hard-error in from_string/from_config) and runs.
    EXPECT_NO_THROW((void)run_experiment(cfg));
  }
}

}  // namespace
}  // namespace sctm::core
