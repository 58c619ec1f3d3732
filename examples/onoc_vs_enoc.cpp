// Case-study example: run the same parallel applications on the electrical
// baseline mesh and on both ONOC variants, execution-driven, and report
// application runtime, packet latency and network energy side by side.
//
// This is the "simple case-study" of the paper's abstract in example form
// (the full sweep lives in bench/tab_casestudy.cpp).
//
// Build & run:  ./build/examples/onoc_vs_enoc [--stats-json <file>]
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/json.hpp"
#include "common/run_metrics.hpp"
#include "common/table.hpp"
#include "core/driver.hpp"
#include "core/error_metrics.hpp"
#include "enoc/power.hpp"
#include "onoc/power.hpp"

namespace {

using namespace sctm;

struct NetResult {
  Cycle runtime;
  double mean_latency;
  double energy_uj;
};

NetResult run_on(const fullsys::AppParams& app, const core::NetSpec& spec) {
  Simulator sim;
  auto net = core::make_factory(spec)(sim);
  fullsys::CmpSystem cmp(sim, "cmp", *net, spec.topo, {},
                         fullsys::build_app(app));
  const Cycle runtime = cmp.run_to_completion();

  double energy_pj = 0;
  if (spec.kind == core::NetKind::kEnoc) {
    auto& e = static_cast<enoc::EnocNetwork&>(*net);
    energy_pj = enoc::compute_enoc_energy(e).total_pj();
  } else {
    auto& o = static_cast<onoc::OnocNetwork&>(*net);
    energy_pj = onoc::compute_onoc_energy(o, runtime).total_pj();
  }
  return NetResult{runtime,
                   core::summarize(cmp.take_records(), runtime).mean_latency,
                   energy_pj * 1e-6};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sctm;
  std::string stats_json;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-json") == 0) stats_json = argv[i + 1];
  }

  Table table("case study: 16-core apps, electrical mesh vs optical crossbar");
  table.set_header({"app", "network", "runtime (cyc)", "mean pkt lat",
                    "net energy (uJ)", "speedup vs enoc"});

  for (const char* name : {"fft", "jacobi", "sort"}) {
    fullsys::AppParams app;
    app.name = name;
    app.cores = 16;
    app.lines_per_core = 16;
    app.iterations = 2;

    core::NetSpec enoc;
    enoc.kind = core::NetKind::kEnoc;
    core::NetSpec token;
    token.kind = core::NetKind::kOnocToken;
    core::NetSpec setup;
    setup.kind = core::NetKind::kOnocSetup;

    const auto base = run_on(app, enoc);
    for (const auto& [spec, label] :
         {std::pair{enoc, "enoc-mesh"}, std::pair{token, "onoc-token"},
          std::pair{setup, "onoc-setup"}}) {
      const auto r = run_on(app, spec);
      table.add_row({name, label, Table::fmt(static_cast<std::uint64_t>(r.runtime)),
                     Table::fmt(r.mean_latency, 1), Table::fmt(r.energy_uj, 2),
                     Table::fmt(static_cast<double>(base.runtime) /
                                    static_cast<double>(r.runtime),
                                2) + "x"});
    }
  }
  std::fputs(table.to_ascii().c_str(), stdout);

  if (!stats_json.empty()) {
    RunMetrics m;
    m.manifest.tool = "onoc_vs_enoc";
    m.manifest.created = now_iso8601();
    m.manifest.set("apps", std::string("fft jacobi sort"));
    m.manifest.set("cores", 16);
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
