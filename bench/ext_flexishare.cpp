// R-E3 (extension): shared-channel-pool sizing (FlexiShare direction).
//
// Sweep the pooled channel count and report performance vs the static
// optical cost it buys (ring count / laser power scale with channels).
// Expected shape: diminishing returns — a small pool saturates the fabric's
// demand, so most of a full per-node channel set is wasted static power at
// these loads.
#include "bench/bench_util.hpp"

#include "onoc/loss.hpp"
#include "onoc/onoc_network.hpp"

namespace {

using namespace sctm;

Cycle run_app_on_pool(const fullsys::AppParams& app, int channels) {
  Simulator sim;
  const auto topo = noc::Topology::mesh(4, 4);
  onoc::OnocNetwork net(sim, "net", topo, {}, onoc::Arbitration::kSharedPool,
                        {}, channels);
  fullsys::CmpSystem cmp(sim, "cmp", net, topo, {}, fullsys::build_app(app));
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

  Table t("R-E3: shared channel pool sizing (fft, 16 cores)");
  t.set_header({"channels", "runtime", "slowdown vs 16ch",
                "rings (vs 16ch)", "laser mW (vs 16ch)"});

  const Cycle full = run_app_on_pool(app, 16);
  onoc::LossBudgetInputs ref;
  ref.channels_per_node = 1;  // pool channels are global, count them directly
  bool ok = true;
  double laser16 = 0;
  for (const int ch : {1, 2, 4, 8, 16}) {
    const Cycle rt = run_app_on_pool(app, ch);
    onoc::LossBudgetInputs in = ref;
    // Modulators: every node can write every pool channel.
    in.nodes = 16;
    in.channels_per_node = ch;
    const auto laser = onoc::compute_laser(in);
    // Laser scales with the per-channel comb count = ch (not nodes).
    const double laser_mw = units::dbm_to_mw(laser.per_wavelength_dbm) *
                            in.wavelengths * ch /
                            in.laser.wall_plug_efficiency;
    if (ch == 16) laser16 = laser_mw;
    t.add_row({Table::fmt(static_cast<std::int64_t>(ch)),
               Table::fmt(static_cast<std::uint64_t>(rt)),
               Table::fmt(static_cast<double>(rt) / static_cast<double>(full),
                          2) + "x",
               Table::fmt(laser.ring_count),
               Table::fmt(laser_mw, 1)});
    ok = ok && rt >= full;
  }
  // Diminishing returns: 8 channels should already be within 5% of 16.
  const Cycle eight = run_app_on_pool(app, 8);
  ok = ok &&
       static_cast<double>(eight) < 1.05 * static_cast<double>(full) &&
       laser16 > 0;
  emit(t, "re3_flexishare");
  return verdict(ok, "R-E3 pool sizing shows diminishing returns by 8 "
                     "channels");
}
