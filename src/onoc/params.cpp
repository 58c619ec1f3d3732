#include "onoc/params.hpp"

#include "onoc/devices.hpp"

namespace sctm::onoc {

const char* to_string(Arbitration a) {
  switch (a) {
    case Arbitration::kTokenRing: return "token-ring";
    case Arbitration::kPathSetup: return "path-setup";
    case Arbitration::kSwmr: return "swmr";
    case Arbitration::kSharedPool: return "shared-pool";
  }
  return "?";
}

Cycle OnocParams::tof_cycles(int tile_hops, int fabric_width) const {
  if (tile_hops <= 0) return 1;
  const double tile_pitch_cm =
      die_edge_cm / static_cast<double>(fabric_width > 0 ? fabric_width : 1);
  const double s =
      time_of_flight_s(tile_pitch_cm * static_cast<double>(tile_hops),
                       waveguide);
  const Cycle c = units::seconds_to_cycles(s, clock_ghz * 1e9);
  return c == 0 ? 1 : c;
}

OnocParams OnocParams::from_config(const Config& cfg) {
  OnocParams p;
  p.wavelengths = cfg.get_as("onoc.wavelengths", p.wavelengths);
  p.gbps_per_wavelength =
      cfg.get_double("onoc.gbps_per_wavelength", p.gbps_per_wavelength);
  p.clock_ghz = cfg.get_double("onoc.clock_ghz", p.clock_ghz);
  p.eo_latency = cfg.get_as("onoc.eo_latency", p.eo_latency);
  p.oe_latency = cfg.get_as("onoc.oe_latency", p.oe_latency);
  p.guard_cycles = cfg.get_as("onoc.guard_cycles", p.guard_cycles);
  p.token_hop_latency =
      cfg.get_as("onoc.token_hop_latency", p.token_hop_latency);
  p.die_edge_cm = cfg.get_double("onoc.die_edge_cm", p.die_edge_cm);
  p.ctrl_msg_bytes = cfg.get_as("onoc.ctrl_msg_bytes", p.ctrl_msg_bytes);

  const std::string arb = cfg.get_string("onoc.arbitration", "token-ring");
  if (arb == "token-ring") p.arbitration = Arbitration::kTokenRing;
  else if (arb == "path-setup") p.arbitration = Arbitration::kPathSetup;
  else if (arb == "swmr") p.arbitration = Arbitration::kSwmr;
  else if (arb == "shared-pool") p.arbitration = Arbitration::kSharedPool;
  else {
    throw std::invalid_argument("onoc.arbitration: unknown scheme " + arb);
  }
  p.pool_channels = cfg.get_as("onoc.pool_channels", p.pool_channels);

  p.ctrl = enoc::EnocParams::from_config(cfg);
  // The control mesh carries only short control packets: one vnet suffices
  // unless the config says otherwise.
  p.ctrl.vnets = cfg.get_as("onoc.ctrl_vnets", 1);
  return p;
}

}  // namespace sctm::onoc
