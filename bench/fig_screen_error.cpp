// BENCH_analytic_screen — tier-0 estimator error and screening recall.
//
// For every standard workload, captures a trace on the ENoC baseline, then
// ranks a 10-candidate design space (all six network kinds plus parameter
// variants, including an ENoC over a 3D mesh of the same node count) twice:
// the ground truth with full self-correcting replay, and
// the tier-0 analytic screen. Reports, per candidate, estimated versus
// replayed runtime and the relative error; per network kind, the mean
// error; per workload, the top-3 recall of the screen.
//
// Gates (CI runs --smoke):
//   * top-3 recall >= 2/3 on every workload,
//   * analytic scoring >= 100x faster than one replay pass,
//   * per-kind mean relative runtime error under the recorded ceiling.
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analytic/model.hpp"
#include "analytic/trace_profile.hpp"
#include "bench/bench_util.hpp"
#include "core/explore.hpp"

namespace {

using namespace sctm;

struct Cand {
  core::Candidate c;
  const char* kind;  // manifest key slug
};

std::vector<Cand> design_space() {
  std::vector<Cand> out;
  const auto add = [&](const char* name, core::NetKind kind,
                       const char* slug) {
    core::NetSpec s;
    s.kind = kind;
    out.push_back({{name, s}, slug});
  };
  add("ideal", core::NetKind::kIdeal, "ideal");
  add("enoc-base", core::NetKind::kEnoc, "enoc");
  add("enoc-wide", core::NetKind::kEnoc, "enoc");
  out.back().c.spec.enoc.flit_bytes = 32;
  add("enoc-slow", core::NetKind::kEnoc, "enoc");
  out.back().c.spec.enoc.link_latency = 4;
  add("enoc-mesh3d", core::NetKind::kEnoc, "enoc-3d");
  // Same 16 nodes folded into a 4x2x2 lattice (the trace pins the node
  // count), XYZ-routed: the estimator must hold its ceiling on 3D kinds too.
  out.back().c.spec.topo = noc::Topology::mesh3d(4, 2, 2);
  add("onoc-token", core::NetKind::kOnocToken, "onoc-token");
  add("onoc-setup", core::NetKind::kOnocSetup, "onoc-setup");
  add("onoc-swmr", core::NetKind::kOnocSwmr, "onoc-swmr");
  add("onoc-swmr-64", core::NetKind::kOnocSwmr, "onoc-swmr");
  out.back().c.spec.onoc.wavelengths = 64;
  add("hybrid", core::NetKind::kHybrid, "hybrid");
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const auto apps = smoke ? bench::standard_apps(16, 8, 1)
                          : bench::standard_apps();
  const auto space = design_space();
  std::vector<core::Candidate> candidates;
  for (const auto& s : space) candidates.push_back(s.c);

  Table t("analytic_screen");
  t.set_header({"app", "candidate", "kind", "est_runtime", "replay_runtime",
                "rel_err", "analytic_us", "replay_ms"});

  std::map<std::string, std::pair<double, int>> kind_err;  // slug -> (sum, n)
  int min_recall = 3;
  double worst_speedup = 1e300;
  bool ok = true;

  for (const auto& app : apps) {
    const auto rt = core::ReplayTrace(
        core::run_execution(app, bench::enoc_spec(), {}).trace);

    // Ground truth: one full replay per candidate.
    const auto truth = core::explore(rt, candidates, {});
    std::map<std::string, const core::ExploreResult*> by_name;
    for (const auto& r : truth) by_name[r.name] = &r;

    // Tier 0: profile once, score every candidate. One untimed warmup pass
    // first so the timed pass measures steady-state scoring cost, not the
    // first-call instruction-cache misses.
    const analytic::TraceProfile profile = analytic::profile_trace(rt);
    for (const auto& s : space) analytic::estimate(profile, s.c.spec);
    double analytic_total = 0;
    double replay_total = 0;
    std::vector<std::pair<double, std::string>> est_rank;
    for (std::size_t i = 0; i < space.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto est = analytic::estimate(profile, space[i].c.spec);
      const double est_secs = seconds_since(t0);
      const auto& tr = *by_name.at(space[i].c.name);
      // Single-pass replay cost: the session's wall divided by its
      // self-correction iterations.
      const double replay_secs =
          tr.wall_seconds / std::max(1, tr.iterations);
      analytic_total += est_secs;
      replay_total += replay_secs;
      const double err =
          std::abs(est.est_runtime - static_cast<double>(tr.runtime)) /
          static_cast<double>(tr.runtime);
      auto& acc = kind_err[space[i].kind];
      acc.first += err;
      acc.second += 1;
      est_rank.push_back({est.est_runtime, space[i].c.name});
      t.add_row({app.name, space[i].c.name, space[i].kind,
                 Table::fmt(est.est_runtime, 0),
                 Table::fmt(std::uint64_t{tr.runtime}), Table::fmt(err, 3),
                 Table::fmt(est_secs * 1e6, 1),
                 Table::fmt(replay_secs * 1e3, 2)});
    }

    // Top-3 recall of the analytic ranking against replay truth.
    std::sort(est_rank.begin(), est_rank.end());
    std::set<std::string> top3;
    for (std::size_t i = 0; i < 3; ++i) top3.insert(est_rank[i].second);
    int hits = 0;
    for (std::size_t i = 0; i < 3; ++i) {
      hits += top3.count(truth[i].name) ? 1 : 0;
    }
    min_recall = std::min(min_recall, hits);
    if (hits < 2) {
      std::printf("[FAIL] %s: top-3 recall %d/3\n", app.name.c_str(), hits);
      ok = false;
    }
    const double speedup =
        replay_total / std::max(analytic_total, 1e-12) ;
    worst_speedup = std::min(worst_speedup, speedup);
    std::printf("%s: top-3 recall %d/3, analytic %.1fx faster than one "
                "replay pass\n",
                app.name.c_str(), hits, speedup);
  }

  // Per-kind error ceiling: the M/G/1 treatment is coarse near saturation
  // (DESIGN.md §12); anything beyond this says the estimator regressed, not
  // that queueing theory got harder.
  const double kErrCeiling = 0.35;
  RunMetrics m = bench::bench_metrics(t, "BENCH_analytic_screen");
  for (const auto& [slug, acc] : kind_err) {
    const double err = acc.first / acc.second;
    m.manifest.set("mean_rel_err." + slug, Table::fmt(err, 4));
    std::printf("kind %s: mean relative runtime error %.3f\n", slug.c_str(),
                err);
    if (!(err < kErrCeiling)) {
      std::printf("[FAIL] kind %s error %.3f >= ceiling %.2f\n", slug.c_str(),
                  err, kErrCeiling);
      ok = false;
    }
  }
  m.manifest.set("min_top3_recall", static_cast<std::int64_t>(min_recall));
  m.manifest.set("worst_speedup", Table::fmt(worst_speedup, 1));
  m.manifest.set("err_ceiling", Table::fmt(kErrCeiling, 2));
  bench::emit(t, "BENCH_analytic_screen", m);

  if (worst_speedup < 100.0) {
    std::printf("[FAIL] analytic scoring only %.0fx faster than replay\n",
                worst_speedup);
    ok = false;
  }
  return bench::verdict(
      ok, "analytic screen: recall >= 2/3, speedup >= 100x, per-kind error "
          "under ceiling");
}
