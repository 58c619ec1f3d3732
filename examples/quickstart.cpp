// Quickstart: the complete Self-Correction Trace Model pipeline in ~60
// lines.
//
//   1. Run an application execution-driven on the electrical baseline NoC,
//      capturing a dependency-annotated trace.
//   2. Replay the trace on an optical NoC twice: naively (frozen
//      timestamps) and with self-correction.
//   3. Compare against execution-driven ground truth on the same ONOC.
//
// Build & run:  ./build/examples/quickstart [--stats-json <file>]
#include <cstdio>
#include <cstring>
#include <string>

#include "common/json.hpp"
#include "common/run_metrics.hpp"
#include "core/driver.hpp"
#include "core/error_metrics.hpp"

namespace {

/// Returns the value after `flag` in argv, or empty when absent.
std::string flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sctm;
  const std::string stats_json = flag_value(argc, argv, "--stats-json");

  // The workload: a 16-core FFT kernel (butterfly exchanges + barriers).
  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 16;
  app.iterations = 2;

  fullsys::FullSysParams sys;  // default cache hierarchy

  // Capture network: 4x4 electrical wormhole mesh.
  core::NetSpec enoc;
  enoc.kind = core::NetKind::kEnoc;

  // Target network: token-arbitrated optical crossbar on the same die.
  core::NetSpec onoc;
  onoc.kind = core::NetKind::kOnocToken;

  std::puts("[1/3] execution-driven capture on the electrical mesh...");
  const auto capture = core::run_execution(app, enoc, sys);
  std::printf("      runtime %llu cycles, %zu messages, %.3f s wall\n",
              static_cast<unsigned long long>(capture.runtime),
              capture.trace.records.size(), capture.wall_seconds);

  std::puts("[2/3] trace replay on the optical NoC...");
  core::ReplayConfig naive_cfg;
  naive_cfg.mode = core::ReplayMode::kNaive;
  const core::ReplayTrace rt(capture.trace);
  const auto naive = core::run_replay(rt, onoc, naive_cfg);
  const auto sctm = core::run_replay(rt, onoc, {});
  std::printf("      naive: runtime %llu cycles, %.4f s wall\n",
              static_cast<unsigned long long>(naive.result.runtime),
              naive.wall_seconds);
  std::printf("      sctm : runtime %llu cycles, %.4f s wall\n",
              static_cast<unsigned long long>(sctm.result.runtime),
              sctm.wall_seconds);

  std::puts("[3/3] ground truth: execution-driven on the optical NoC...");
  const auto truth = core::run_execution(app, onoc, sys);
  const auto ts = core::summarize(truth.trace);
  const auto en = core::compare(ts, core::summarize(naive.result));
  const auto es = core::compare(ts, core::summarize(sctm.result));
  std::printf("      truth runtime %llu cycles (%.3f s wall)\n",
              static_cast<unsigned long long>(truth.runtime),
              truth.wall_seconds);
  std::printf("      naive trace error: runtime %.1f%%, mean latency %.1f%%\n",
              100 * en.runtime_err, 100 * en.mean_latency_err);
  std::printf("      sctm  trace error: runtime %.1f%%, mean latency %.1f%%\n",
              100 * es.runtime_err, 100 * es.mean_latency_err);

  if (!stats_json.empty()) {
    auto m = core::metrics_for_execution(app, onoc, truth, "quickstart",
                                         now_iso8601());
    m.add_phase("capture_enoc", capture.wall_seconds, capture.events);
    m.add_phase("replay_naive", naive.wall_seconds, naive.result.events);
    m.add_phase("replay_sctm", sctm.wall_seconds, sctm.result.events);
    JsonWriter results;
    results.begin_object();
    results.key("truth_runtime_cycles");
    results.value(std::uint64_t{truth.runtime});
    results.key("naive_runtime_err");
    results.value(en.runtime_err);
    results.key("naive_mean_latency_err");
    results.value(en.mean_latency_err);
    results.key("sctm_runtime_err");
    results.value(es.runtime_err);
    results.key("sctm_mean_latency_err");
    results.value(es.mean_latency_err);
    results.end_object();
    m.set_results_json(std::move(results).str());
    m.write_file(stats_json);
    std::printf("run metrics json -> %s\n", stats_json.c_str());
  }
  return 0;
}
