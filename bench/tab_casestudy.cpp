// R-T2: the case study — real applications on the ONOC vs the baseline
// electrical NoC simulator, execution-driven, at 16 and 64 cores.
//
// Reports application runtime, packet latency, network energy and
// energy-delay product. Expected shape: the optical crossbar wins on
// bandwidth-hungry transfers and large fabrics but pays conversion/
// arbitration latency on short coherence messages and a heavy static power
// floor at small scale.
#include "bench/bench_util.hpp"

#include "common/parallel.hpp"
#include "enoc/power.hpp"
#include "onoc/power.hpp"

namespace {

using namespace sctm;

struct Row {
  Cycle runtime;
  double mean_lat;
  double p99;
  double energy_uj;
};

Row run_case(const fullsys::AppParams& app, const core::NetSpec& spec) {
  Simulator sim;
  auto net = core::make_factory(spec)(sim);
  fullsys::CmpSystem cmp(sim, "cmp", *net, spec.topo, {},
                         fullsys::build_app(app));
  const Cycle runtime = cmp.run_to_completion();
  double pj = 0;
  if (spec.kind == core::NetKind::kEnoc) {
    auto& e = static_cast<enoc::EnocNetwork&>(*net);
    pj = enoc::compute_enoc_energy(e).total_pj();
  } else if (spec.kind == core::NetKind::kHybrid) {
    auto& hy = static_cast<onoc::HybridNetwork&>(*net);
    pj = enoc::compute_enoc_energy(hy.electrical()).total_pj() +
         onoc::compute_onoc_energy(hy.optical(), runtime).total_pj();
  } else {
    auto& o = static_cast<onoc::OnocNetwork&>(*net);
    pj = onoc::compute_onoc_energy(o, runtime).total_pj();
  }
  const core::RunSummary lat = core::summarize(cmp.take_records(), runtime);
  return Row{runtime, lat.mean_latency, static_cast<double>(lat.p99_latency),
             pj * 1e-6};
}

}  // namespace

int main() {
  using namespace sctm;
  using namespace sctm::bench;

  Table t("R-T2: case study, execution-driven, ENoC mesh vs ONOC variants");
  t.set_header({"cores", "app", "network", "runtime", "mean lat", "p99 lat",
                "energy (uJ)", "EDP (uJ*kcyc)", "speedup"});

  // Flatten the (cores x app x network) grid into independent cells and run
  // them in parallel; rows are emitted in grid order afterwards.
  struct Cell {
    int cores;
    const char* app;
    const char* label;
    core::NetSpec spec;
    Row result{};
  };
  std::vector<Cell> cells;
  for (const int cores : {16, 64}) {
    const auto topo = cores == 16 ? noc::Topology::mesh(4, 4)
                                  : noc::Topology::mesh(8, 8);
    for (const char* name : {"fft", "jacobi", "sort"}) {
      core::NetSpec swmr;
      swmr.kind = core::NetKind::kOnocSwmr;
      swmr.topo = topo;
      core::NetSpec hybrid;
      hybrid.kind = core::NetKind::kHybrid;
      hybrid.topo = topo;
      for (const auto& [spec, label] :
           {std::pair{enoc_spec(topo), "enoc"},
            std::pair{onoc_token_spec(topo), "onoc-token"},
            std::pair{onoc_setup_spec(topo), "onoc-setup"},
            std::pair{swmr, "onoc-swmr"}, std::pair{hybrid, "hybrid"}}) {
        cells.push_back(Cell{cores, name, label, spec});
      }
    }
  }
  parallel_for(cells.size(), [&](std::size_t i) {
    fullsys::AppParams app;
    app.name = cells[i].app;
    app.cores = cells[i].cores;
    app.lines_per_core = 16;
    app.iterations = 2;
    cells[i].result = run_case(app, cells[i].spec);
  });

  bool ok = true;
  for (const auto& c : cells) {
    // The first cell of each (cores, app) group is the enoc baseline.
    const Row* base = nullptr;
    for (const auto& b : cells) {
      if (b.cores == c.cores && b.app == c.app &&
          std::string(b.label) == "enoc") {
        base = &b.result;
        break;
      }
    }
    const Row& r = c.result;
    const double edp = r.energy_uj * static_cast<double>(r.runtime) * 1e-3;
    ok = ok && r.runtime > 0;
    t.add_row({Table::fmt(static_cast<std::int64_t>(c.cores)), c.app, c.label,
               Table::fmt(static_cast<std::uint64_t>(r.runtime)),
               Table::fmt(r.mean_lat, 1), Table::fmt(r.p99, 0),
               Table::fmt(r.energy_uj, 2), Table::fmt(edp, 2),
               Table::fmt(static_cast<double>(base->runtime) /
                              static_cast<double>(r.runtime),
                          2) + "x"});
  }
  emit(t, "rt2_casestudy");
  return verdict(ok, "R-T2 case study completed on all fabrics");
}
