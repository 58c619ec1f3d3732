// Trace workflow example: capture a trace to disk, inspect it, reload it,
// and replay it on a different network — the decoupled workflow the
// full-system simulator supports (capture once on the slow execution-driven
// front end, then explore many network designs at trace speed).
//
// Build & run:  ./build/examples/trace_capture_replay [trace-file]
//                                                     [--stats-json <file>]
#include <cstdio>
#include <cstring>
#include <string>

#include "analytic/trace_profile.hpp"
#include "common/run_metrics.hpp"
#include "core/driver.hpp"
#include "trace/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace sctm;
  std::string path = "/tmp/sctm_example_trace.bin";
  std::string stats_json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-json") == 0 && i + 1 < argc) {
      stats_json = argv[++i];
    } else {
      path = argv[i];
    }
  }

  // --- capture ---
  fullsys::AppParams app;
  app.name = "sort";
  app.cores = 16;
  app.lines_per_core = 16;
  app.iterations = 2;
  core::NetSpec capture_net;
  capture_net.kind = core::NetKind::kEnoc;
  const auto exec = core::run_execution(app, capture_net, {});
  trace::write_binary_file(exec.trace, path);
  std::printf("captured %zu messages from '%s' -> %s\n",
              exec.trace.records.size(), app.name.c_str(), path.c_str());

  // --- inspect ---
  // Validates the dependency annotations once; every replay below reuses it.
  const core::ReplayTrace loaded = core::load_replay_trace(path);
  const analytic::TraceProfile profile = analytic::profile_trace(loaded);
  std::printf("trace: app=%s capture-net='%s' nodes=%d runtime=%llu\n",
              loaded.app().c_str(), loaded.capture_network().c_str(),
              loaded.nodes(),
              static_cast<unsigned long long>(loaded.capture_runtime()));
  std::printf("dependency graph: %.2f deps/record, %llu roots, critical path "
              "%llu records\n",
              profile.mean_fanin,
              static_cast<unsigned long long>(profile.roots),
              static_cast<unsigned long long>(profile.critical_depth));

  // --- replay on three different targets ---
  for (const auto kind : {core::NetKind::kEnoc, core::NetKind::kOnocToken,
                          core::NetKind::kOnocSetup}) {
    core::NetSpec target;
    target.kind = kind;
    const auto rep = core::run_replay(loaded, target, {});
    std::printf("replay on %-10s : runtime %7llu cycles, mean latency %6.1f, "
                "%.4f s wall\n",
                core::to_string(kind),
                static_cast<unsigned long long>(rep.result.runtime),
                rep.result.latency_histogram().mean(), rep.wall_seconds);
  }

  // --- the self-correction fixed point ---
  // Replaying on the capture network reproduces every captured injection and
  // arrival bit-exactly.
  const auto back = core::run_replay(loaded, capture_net, {});
  std::size_t mismatches = 0;
  for (std::uint32_t i = 0; i < loaded.size(); ++i) {
    if (back.result.inject_time[i] != loaded.inject_time(i) ||
        back.result.arrive_time[i] != loaded.arrive_time(i)) {
      ++mismatches;
    }
  }
  std::printf("fixed-point check on the capture network: %zu/%u records "
              "mismatch (expect 0)\n",
              mismatches, loaded.size());

  if (!stats_json.empty()) {
    auto m = core::metrics_for_replay(loaded, capture_net, {}, back,
                                      "trace_capture_replay", now_iso8601());
    m.manifest.set("trace_file", path);
    m.manifest.set("fixed_point_mismatches",
                   static_cast<std::uint64_t>(mismatches));
    m.write_file(stats_json);
    std::printf("run metrics json -> %s\n", stats_json.c_str());
  }
  return mismatches == 0 ? 0 : 1;
}
