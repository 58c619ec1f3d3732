// Synthetic-traffic characterization example: classic load/latency curves
// for the electrical mesh and both ONOC arbitration schemes under uniform
// random traffic. Useful for sanity-checking a network configuration before
// committing to a long full-system run.
//
// Build & run:  ./build/examples/sweep_injection [--stats-json <file>]
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/json.hpp"
#include "common/run_metrics.hpp"
#include "common/table.hpp"
#include "core/driver.hpp"
#include "noc/traffic.hpp"

int main(int argc, char** argv) {
  using namespace sctm;
  std::string stats_json;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-json") == 0) stats_json = argv[i + 1];
  }

  Table table("uniform-random load sweep, 4x4 fabric, 64 B packets");
  table.set_header({"rate (pkt/node/cyc)", "network", "mean lat", "p99 lat",
                    "throughput"});

  for (const double rate : {0.02, 0.05, 0.10, 0.20, 0.35}) {
    for (const auto kind : {core::NetKind::kEnoc, core::NetKind::kOnocToken,
                            core::NetKind::kOnocSetup}) {
      core::NetSpec spec;
      spec.kind = kind;
      Simulator sim;
      auto net = core::make_factory(spec)(sim);
      noc::TrafficGenerator::Params tp;
      tp.injection_rate = rate;
      tp.packet_bytes = 64;
      tp.warmup = 500;
      tp.measure = 5000;
      tp.seed = 7;
      noc::TrafficGenerator gen(sim, "gen", *net, spec.topo, tp);
      gen.run_to_completion();
      table.add_row({Table::fmt(rate, 2), core::to_string(kind),
                     Table::fmt(gen.latency().mean(), 1),
                     Table::fmt(gen.latency().percentile(0.99)),
                     Table::fmt(gen.throughput(), 3)});
    }
  }
  std::fputs(table.to_ascii().c_str(), stdout);

  if (!stats_json.empty()) {
    RunMetrics m;
    m.manifest.tool = "sweep_injection";
    m.manifest.created = now_iso8601();
    m.manifest.set("fabric", std::string("4x4"));
    m.manifest.set("packet_bytes", 64);
    JsonWriter results;
    results.begin_object();
    results.key("table");
    write_table_json(results, table);
    results.end_object();
    m.set_results_json(std::move(results).str());
    m.write_file(stats_json);
    std::printf("run metrics json -> %s\n", stats_json.c_str());
  }
  return 0;
}
