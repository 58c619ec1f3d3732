#include "onoc/power.hpp"

#include "enoc/power.hpp"

namespace sctm::onoc {

double OnocEnergyBreakdown::watts(std::uint64_t cycles,
                                  double clock_ghz) const {
  if (cycles == 0) return 0.0;
  const double seconds = static_cast<double>(cycles) / (clock_ghz * 1e9);
  return total_pj() * 1e-12 / seconds;
}

LossBudgetInputs budget_inputs_for(const OnocParams& p, int nodes) {
  LossBudgetInputs in;
  in.nodes = nodes;
  in.wavelengths = p.wavelengths;
  in.channels_per_node = nodes - 1;
  in.die_edge_cm = p.die_edge_cm;
  in.ring = p.ring;
  in.waveguide = p.waveguide;
  in.detector = p.detector;
  in.laser = p.laser;
  return in;
}

OnocEnergyBreakdown compute_onoc_energy(const OnocNetwork& net,
                                        std::uint64_t elapsed_cycles) {
  const OnocParams& p = net.params();
  const LaserRequirement laser =
      compute_laser(budget_inputs_for(p, net.node_count()));
  const double seconds =
      static_cast<double>(elapsed_cycles) / (p.clock_ghz * 1e9);

  OnocEnergyBreakdown out;
  out.laser_pj = laser.total_electrical_mw * 1e-3 * seconds * 1e12;
  out.tuning_pj = laser.ring_heating_mw * 1e-3 * seconds * 1e12;

  const double bits = static_cast<double>(net.data_bytes()) * 8.0;
  out.dynamic_pj = bits *
                   (p.ring.modulation_fj_per_bit + p.ring.detection_fj_per_bit) *
                   1e-3;  // fJ -> pJ

  if (const auto* ctrl = net.control_network()) {
    out.ctrl_pj = enoc::compute_enoc_energy(*ctrl).total_pj();
  }
  return out;
}

}  // namespace sctm::onoc
