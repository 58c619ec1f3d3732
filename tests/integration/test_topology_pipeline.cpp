// End-to-end pipeline over the graph-backed fabrics: capture on a 3D mesh
// and on the shipped file-defined fabric, round-trip the trace through the
// v2 container, replay it back to the captured fixed point, and run a
// screened exploration over candidate variants of the same fabric. This is
// the "new kinds are first-class workloads" acceptance check: every stage
// that works for the legacy 2D kinds must work — and stay deterministic —
// for mesh3d/torus3d/file.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analytic/screen.hpp"
#include "core/driver.hpp"
#include "core/explore.hpp"
#include "noc/routing.hpp"
#include "trace/trace_io.hpp"
#include "tracestore/trace_store.hpp"

namespace sctm {
namespace {

using core::NetKind;
using core::NetSpec;

NetSpec spec_on(NetKind kind, const noc::Topology& topo) {
  NetSpec s;
  s.kind = kind;
  s.topo = topo;
  return s;
}

fullsys::AppParams app_on(const noc::Topology& topo) {
  fullsys::AppParams app;
  app.name = "fft";
  app.cores = topo.node_count();
  app.lines_per_core = 8;
  app.iterations = 1;
  return app;
}

/// The shipped 12-node fabric, or nullptr when the source tree is not
/// reachable from this binary (exotic build layouts).
const noc::Topology* shipped_file_topology() {
  static const std::unique_ptr<noc::Topology> topo = [] {
    std::string root = __FILE__;
    const auto cut = root.rfind("tests/");
    if (cut == std::string::npos) return std::unique_ptr<noc::Topology>();
    try {
      return std::make_unique<noc::Topology>(
          noc::Topology::from_file(root.substr(0, cut) +
                                   "configs/group12.topo"));
    } catch (const std::exception&) {
      return std::unique_ptr<noc::Topology>();
    }
  }();
  return topo.get();
}

void run_pipeline(const noc::Topology& topo, const std::string& tag) {
  // Capture on the electrical NoC over the fabric under test.
  const NetSpec cap_spec = spec_on(NetKind::kEnoc, topo);
  const auto exec = core::run_execution(app_on(topo), cap_spec, {});
  ASSERT_GT(exec.trace.records.size(), 100u);

  // Round-trip through the v2 container (the store only writes v2;
  // TraceReader reads either format).
  const std::string path = "/tmp/sctm_topo_pipeline_" + tag + ".trc2";
  tracestore::write_file(exec.trace, path, tracestore::TraceFormat::kV2);
  const auto verify = tracestore::verify_file(path);
  EXPECT_TRUE(verify.ok) << verify.error;
  const auto loaded = trace::read_binary_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded, exec.trace);

  // Same-network replay is the fixed point on graph-backed fabrics too.
  const core::ReplayTrace rt(loaded);
  const auto same_net = core::run_replay(rt, cap_spec, core::ReplayConfig{});
  for (std::size_t i = 0; i < loaded.records.size(); ++i) {
    ASSERT_EQ(same_net.result.inject_time[i], loaded.records.inject[i]);
    ASSERT_EQ(same_net.result.arrive_time[i], loaded.records.arrive[i]);
  }

  // Screened exploration: rank parameter variants analytically, confirm the
  // top two with replay. Deterministic and complete — every candidate comes
  // back, replayed or analytic-only.
  std::vector<core::Candidate> candidates;
  for (const int depth : {1, 4, 8}) {
    NetSpec s = cap_spec;
    s.enoc.buffer_depth = depth;
    candidates.push_back({"buf" + std::to_string(depth), s});
  }
  core::ExploreConfig ecfg;
  ecfg.threads = 2;
  ecfg.screen_top_k = 2;
  const auto ranked = analytic::explore_screened(rt, candidates, ecfg);
  ASSERT_EQ(ranked.size(), candidates.size());
  std::size_t replayed = 0;
  for (const auto& r : ranked) {
    EXPECT_GT(r.analytic_rank, 0u) << r.name;
    EXPECT_GT(r.est_runtime, 0.0) << r.name;
    if (r.replayed) {
      ++replayed;
      EXPECT_GT(r.runtime, 0u) << r.name;
    }
  }
  EXPECT_EQ(replayed, 2u);
  // Confirmed candidates sort ahead of the analytic-only tail.
  EXPECT_TRUE(ranked[0].replayed);
  EXPECT_TRUE(ranked[1].replayed);
  EXPECT_FALSE(ranked[2].replayed);
}

TEST(TopologyPipeline, Mesh3DEndToEnd) {
  run_pipeline(noc::Topology::mesh3d(4, 4, 2), "mesh3d");
}

TEST(TopologyPipeline, Torus3DEndToEnd) {
  run_pipeline(noc::Topology::torus3d(3, 3, 2), "torus3d");
}

TEST(TopologyPipeline, FileFabricEndToEnd) {
  const noc::Topology* topo = shipped_file_topology();
  if (topo == nullptr) GTEST_SKIP() << "configs/group12.topo not reachable";
  run_pipeline(*topo, "group12");
}

}  // namespace
}  // namespace sctm
