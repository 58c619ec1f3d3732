#include "onoc/params.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "onoc/devices.hpp"

namespace sctm::onoc {

namespace {

/// 2^64: a cycle count at or above it does not fit a Cycle.
constexpr double kCycleLimit = 18446744073709551616.0;

}  // namespace

void OnocParams::validate(const Config* source) const {
  const auto reject = [source](const char* key, const std::string& why) {
    if (source != nullptr) source->reject(key, why);
    throw std::invalid_argument(std::string(key) + ": " + why);
  };
  // Written as !(x > 0) so that NaN, which compares false, is rejected too.
  if (wavelengths < 1) reject("onoc.wavelengths", "must be >= 1");
  if (!(gbps_per_wavelength > 0)) {
    reject("onoc.gbps_per_wavelength", "must be > 0");
  }
  if (!(clock_ghz > 0)) reject("onoc.clock_ghz", "must be > 0");
  if (!(die_edge_cm > 0)) reject("onoc.die_edge_cm", "must be > 0");
  if (eo_latency < 1) reject("onoc.eo_latency", "must be >= 1");
  if (oe_latency < 1) reject("onoc.oe_latency", "must be >= 1");
  if (token_hop_latency < 1) reject("onoc.token_hop_latency", "must be >= 1");
  const double max_message = std::numeric_limits<std::uint32_t>::max();
  if (!(max_message / bytes_per_cycle() < kCycleLimit)) {
    reject("onoc.gbps_per_wavelength",
           "at onoc.wavelengths x onoc.gbps_per_wavelength / onoc.clock_ghz, "
           "a 4294967295-byte message serializes for more cycles than a "
           "Cycle holds");
  }
  const double crossing =
      time_of_flight_s(2.0 * die_edge_cm, waveguide) * clock_ghz * 1e9;
  if (!(crossing < kCycleLimit)) {
    reject("onoc.die_edge_cm",
           "crossing the die (2 x onoc.die_edge_cm at onoc.clock_ghz) takes "
           "more cycles than a Cycle holds");
  }
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
  p.validate(&cfg);
  return p;
}

}  // namespace sctm::onoc
