// R-F4: iterative self-correction under truncated dependency windows.
//
// With the full dependency list, one replay pass is the exact fixed point.
// With a bounded window W, the engine iterates — this figure reports, per
// target and W, the passes needed to converge and the residual runtime error
// against the full-window result.
#include <algorithm>

#include "bench/bench_util.hpp"

int main() {
  using namespace sctm;
  using namespace sctm::bench;

  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 16;
  app.iterations = 2;

  const core::ReplayTrace capture(
      core::run_execution(app, ideal_spec(2), {}).trace);
  // Targets: a much slower ideal network, so frozen anchors are badly wrong
  // and the correction has real work to do, and the electrical mesh, whose
  // contention makes the first truncated-window pass miss the full-window
  // schedule, so a second pass re-derives its bounds.
  struct Target {
    const char* name;
    core::NetSpec spec;
  };
  const Target targets[] = {{"ideal 16 cyc/hop", ideal_spec(16)},
                            {"enoc", enoc_spec()}};

  Table t("R-F4: truncated-window convergence (fft, capture ideal 2 "
          "cyc/hop)");
  t.set_header({"target", "window W", "iterations", "residual (cyc)",
                "runtime", "err vs full-window"});

  bool ok = true;
  int most_passes = 0;  // over every W >= 1 row
  for (const Target& target : targets) {
    const auto full = core::run_replay(capture, target.spec, {});
    for (const std::uint32_t w : {0u, 1u, 2u, 4u}) {
      core::ReplayConfig cfg;
      cfg.dependency_window = w;
      cfg.max_iterations = 16;
      const auto rep = core::run_replay(capture, target.spec, cfg);
      const double err =
          std::abs(static_cast<double>(rep.result.runtime) -
                   static_cast<double>(full.result.runtime)) /
          static_cast<double>(full.result.runtime);
      t.add_row({target.name, Table::fmt(static_cast<std::uint64_t>(w)),
                 Table::fmt(static_cast<std::int64_t>(rep.result.iterations)),
                 Table::fmt(rep.result.residual, 2),
                 Table::fmt(static_cast<std::uint64_t>(rep.result.runtime)),
                 Table::pct(err)});
      // W=0 (offline-only correction) propagates delay a single dependency
      // level per pass, so it needs O(critical-path-depth) passes — the row
      // is kept to show exactly why the online window is the load-bearing
      // piece.
      if (w >= 1) {
        ok = ok && err < 0.05 && rep.result.iterations <= 4;
        most_passes = std::max(most_passes, rep.result.iterations);
      }
    }
    t.add_row({target.name, "full", "1", "0.00",
               Table::fmt(static_cast<std::uint64_t>(full.result.runtime)),
               "0.0%"});
  }
  emit(t, "rf4_convergence");
  int rc = verdict(ok, "R-F4 every window W >= 1 converges to within 5% of "
                       "the full-window fixed point in <= 4 passes");
  // A gate whose every row ends after one pass never checks how a second
  // pass re-derives its bounds.
  rc |= verdict(most_passes >= 2,
                "R-F4 some window W >= 1 simulates a second pass");
  return rc;
}
