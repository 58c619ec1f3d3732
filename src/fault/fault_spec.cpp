#include "fault/fault_spec.hpp"

#include <sstream>
#include <stdexcept>

namespace sctm::fault {
namespace {

void check_rate(const char* what, double r) {
  if (!(r >= 0.0 && r <= 1.0)) {
    throw std::invalid_argument(std::string("FaultSpec: ") + what +
                                " must be in [0, 1]");
  }
}

std::string fmt_double(double v) {
  std::ostringstream ss;
  ss.precision(17);
  ss << v;
  return ss.str();
}

}  // namespace

bool FaultSpec::enabled() const {
  return enoc_flit_corrupt_rate > 0 || enoc_flit_drop_rate > 0 ||
         enoc_link_stuck_rate > 0 || onoc_token_loss_rate > 0 ||
         onoc_reservation_loss_rate > 0 || onoc_ring_drift_sigma_c > 0 ||
         onoc_laser_degradation_db > 0;
}

void FaultSpec::validate() const {
  check_rate("enoc_flit_corrupt_rate", enoc_flit_corrupt_rate);
  check_rate("enoc_flit_drop_rate", enoc_flit_drop_rate);
  check_rate("enoc_link_stuck_rate", enoc_link_stuck_rate);
  check_rate("onoc_token_loss_rate", onoc_token_loss_rate);
  check_rate("onoc_reservation_loss_rate", onoc_reservation_loss_rate);
  if (onoc_ring_drift_sigma_c < 0) {
    throw std::invalid_argument(
        "FaultSpec: onoc_ring_drift_sigma_c must be >= 0");
  }
  if (onoc_laser_degradation_db < 0) {
    throw std::invalid_argument(
        "FaultSpec: onoc_laser_degradation_db must be >= 0");
  }
  if (enoc_link_stuck_cycles < 1 || onoc_token_regen_cycles < 1 ||
      onoc_reservation_timeout < 1 || nack_cycles < 1) {
    throw std::invalid_argument(
        "FaultSpec: timeouts/durations must be >= 1 cycle");
  }
  if (max_retries < 0) {
    throw std::invalid_argument("FaultSpec: max_retries must be >= 0");
  }
}

FaultSpec FaultSpec::with_seed(std::uint64_t s) const {
  FaultSpec out = *this;
  out.seed = s;
  return out;
}

FaultSpec FaultSpec::from_config(const Config& cfg) {
  cfg.require_keys_in(
      "fault.",
      {"seed", "enoc_flit_corrupt_rate", "enoc_flit_drop_rate",
       "enoc_link_stuck_rate", "enoc_link_stuck_cycles", "onoc_token_loss_rate",
       "onoc_token_regen_cycles", "onoc_reservation_loss_rate",
       "onoc_reservation_timeout", "onoc_ring_drift_sigma_c",
       "onoc_laser_degradation_db", "max_retries", "nack_cycles"});
  FaultSpec s;
  s.seed = cfg.get_as("fault.seed", s.seed);
  s.enoc_flit_corrupt_rate =
      cfg.get_double("fault.enoc_flit_corrupt_rate", s.enoc_flit_corrupt_rate);
  s.enoc_flit_drop_rate =
      cfg.get_double("fault.enoc_flit_drop_rate", s.enoc_flit_drop_rate);
  s.enoc_link_stuck_rate =
      cfg.get_double("fault.enoc_link_stuck_rate", s.enoc_link_stuck_rate);
  s.enoc_link_stuck_cycles =
      cfg.get_as("fault.enoc_link_stuck_cycles", s.enoc_link_stuck_cycles);
  s.onoc_token_loss_rate =
      cfg.get_double("fault.onoc_token_loss_rate", s.onoc_token_loss_rate);
  s.onoc_token_regen_cycles =
      cfg.get_as("fault.onoc_token_regen_cycles", s.onoc_token_regen_cycles);
  s.onoc_reservation_loss_rate = cfg.get_double(
      "fault.onoc_reservation_loss_rate", s.onoc_reservation_loss_rate);
  s.onoc_reservation_timeout = cfg.get_as("fault.onoc_reservation_timeout",
                                          s.onoc_reservation_timeout);
  s.onoc_ring_drift_sigma_c = cfg.get_double("fault.onoc_ring_drift_sigma_c",
                                             s.onoc_ring_drift_sigma_c);
  s.onoc_laser_degradation_db = cfg.get_double(
      "fault.onoc_laser_degradation_db", s.onoc_laser_degradation_db);
  s.max_retries = cfg.get_as("fault.max_retries", s.max_retries);
  s.nack_cycles = cfg.get_as("fault.nack_cycles", s.nack_cycles);
  s.validate();
  return s;
}

std::vector<std::pair<std::string, std::string>> FaultSpec::manifest_entries()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  if (!enabled()) return out;
  const FaultSpec def;
  out.emplace_back("fault.seed", std::to_string(seed));
  auto rate = [&out](const char* key, double v, double dv) {
    if (v != dv) out.emplace_back(key, fmt_double(v));
  };
  auto cyc = [&out](const char* key, Cycle v, Cycle dv) {
    if (v != dv) out.emplace_back(key, std::to_string(v));
  };
  rate("fault.enoc_flit_corrupt_rate", enoc_flit_corrupt_rate,
       def.enoc_flit_corrupt_rate);
  rate("fault.enoc_flit_drop_rate", enoc_flit_drop_rate,
       def.enoc_flit_drop_rate);
  rate("fault.enoc_link_stuck_rate", enoc_link_stuck_rate,
       def.enoc_link_stuck_rate);
  cyc("fault.enoc_link_stuck_cycles", enoc_link_stuck_cycles,
      def.enoc_link_stuck_cycles);
  rate("fault.onoc_token_loss_rate", onoc_token_loss_rate,
       def.onoc_token_loss_rate);
  cyc("fault.onoc_token_regen_cycles", onoc_token_regen_cycles,
      def.onoc_token_regen_cycles);
  rate("fault.onoc_reservation_loss_rate", onoc_reservation_loss_rate,
       def.onoc_reservation_loss_rate);
  cyc("fault.onoc_reservation_timeout", onoc_reservation_timeout,
      def.onoc_reservation_timeout);
  rate("fault.onoc_ring_drift_sigma_c", onoc_ring_drift_sigma_c,
       def.onoc_ring_drift_sigma_c);
  rate("fault.onoc_laser_degradation_db", onoc_laser_degradation_db,
       def.onoc_laser_degradation_db);
  if (max_retries != def.max_retries) {
    out.emplace_back("fault.max_retries", std::to_string(max_retries));
  }
  cyc("fault.nack_cycles", nack_cycles, def.nack_cycles);
  return out;
}

}  // namespace sctm::fault
