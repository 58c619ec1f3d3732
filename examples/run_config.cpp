// Config-file experiment runner: the reproducible-study entry point.
//
//   ./build/examples/run_config configs/accuracy_fft_onoc.cfg
//                               [--stats-json <file>]
//
// The config describes the workload, the capture/target networks and the
// replay settings; the result table prints here and the exact set of
// consumed keys is echoed for provenance. With --stats-json, the table and
// the consumed-key echo also land in a machine-readable run-metrics
// document.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/json.hpp"
#include "common/run_metrics.hpp"
#include "core/experiment.hpp"

int main(int argc, char** argv) {
  std::string cfg_path;
  std::string stats_json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-json") == 0 && i + 1 < argc) {
      stats_json = argv[++i];
    } else if (cfg_path.empty()) {
      cfg_path = argv[i];
    } else {
      cfg_path.clear();
      break;
    }
  }
  if (cfg_path.empty()) {
    std::fprintf(stderr,
                 "usage: run_config <experiment.cfg> [--stats-json <file>]\n");
    return 2;
  }
  try {
    const auto cfg = sctm::Config::from_file(cfg_path);
    const auto table = sctm::core::run_experiment(cfg);
    std::fputs(table.to_ascii().c_str(), stdout);
    std::puts("-- consumed configuration --");
    std::fputs(cfg.consumed_dump().c_str(), stdout);

    if (!stats_json.empty()) {
      sctm::RunMetrics m;
      m.manifest.tool = "run_config";
      m.manifest.created = sctm::now_iso8601();
      m.manifest.set("config_file", cfg_path);
      sctm::JsonWriter results;
      results.begin_object();
      results.key("table");
      sctm::write_table_json(results, table);
      results.key("consumed_config");
      results.value(cfg.consumed_dump());
      results.end_object();
      m.set_results_json(std::move(results).str());
      m.write_file(stats_json);
      std::printf("run metrics json -> %s\n", stats_json.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
