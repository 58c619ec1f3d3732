// R-E1 (extension): path-adaptive opto-electronic hybrid NoC.
//
// Reproduces the design direction of the authors' follow-up (ISPA 2013):
// overlay an optical layer on the electrical mesh and steer per message by
// distance/size. This bench sweeps the steering thresholds on a real
// workload and compares against the pure networks. Expected shape: the
// hybrid matches or beats both pure designs, because short control messages
// avoid E/O conversion while bulk data avoids multi-hop wormhole
// serialization.
#include "bench/bench_util.hpp"

#include "enoc/power.hpp"
#include "onoc/power.hpp"

namespace {

using namespace sctm;

struct Out {
  Cycle runtime;
  double mean_lat;
  double optical_frac;
};

Out run_hybrid(const fullsys::AppParams& app, int dist, std::uint32_t size) {
  core::NetSpec spec;
  spec.kind = core::NetKind::kHybrid;
  spec.hybrid.distance_threshold = dist;
  spec.hybrid.size_threshold = size;
  Simulator sim;
  auto net = core::make_factory(spec)(sim);
  fullsys::CmpSystem cmp(sim, "cmp", *net, spec.topo, {},
                         fullsys::build_app(app));
  const Cycle rt = cmp.run_to_completion();
  auto& hy = static_cast<onoc::HybridNetwork&>(*net);
  return Out{rt, core::summarize(cmp.take_records(), rt).mean_latency,
             hy.optical_fraction()};
}

Cycle run_pure(const fullsys::AppParams& app, core::NetKind kind) {
  core::NetSpec spec;
  spec.kind = kind;
  Simulator sim;
  auto net = core::make_factory(spec)(sim);
  fullsys::CmpSystem cmp(sim, "cmp", *net, spec.topo, {},
                         fullsys::build_app(app));
  return cmp.run_to_completion();
}

}  // namespace

int main() {
  using namespace sctm;
  using namespace sctm::bench;

  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 16;
  app.iterations = 2;

  const Cycle pure_el = run_pure(app, core::NetKind::kEnoc);
  const Cycle pure_op = run_pure(app, core::NetKind::kOnocToken);

  Table t("R-E1: hybrid steering-threshold sweep (fft, 16 cores)");
  t.set_header({"dist thresh", "size thresh", "runtime", "mean lat",
                "optical frac", "vs pure-el", "vs pure-op"});
  Cycle best = kNoCycle;
  for (const int dist : {1, 2, 3, 4, 6}) {
    for (const std::uint32_t size : {16u, 64u, 256u}) {
      const Out o = run_hybrid(app, dist, size);
      best = std::min(best, o.runtime);
      t.add_row({Table::fmt(static_cast<std::int64_t>(dist)),
                 Table::fmt(static_cast<std::uint64_t>(size)),
                 Table::fmt(static_cast<std::uint64_t>(o.runtime)),
                 Table::fmt(o.mean_lat, 1), Table::pct(o.optical_frac, 0),
                 Table::fmt(static_cast<double>(pure_el) /
                                static_cast<double>(o.runtime),
                            2) + "x",
                 Table::fmt(static_cast<double>(pure_op) /
                                static_cast<double>(o.runtime),
                            2) + "x"});
    }
  }
  emit(t, "re1_hybrid");
  std::printf("pure electrical %llu, pure optical %llu, best hybrid %llu\n",
              static_cast<unsigned long long>(pure_el),
              static_cast<unsigned long long>(pure_op),
              static_cast<unsigned long long>(best));
  // Shape: some steering point is at least as good as both pure designs
  // (within 2% noise).
  const bool ok = static_cast<double>(best) <=
                  1.02 * static_cast<double>(std::min(pure_el, pure_op));
  return verdict(ok, "R-E1 a hybrid steering point matches/beats both pure "
                     "networks");
}
