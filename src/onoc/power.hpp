// Optical NoC energy model.
//
// Static power dominates ONOCs: the laser must overcome the worst-case loss
// budget continuously, and every microring is thermally trimmed. Dynamic
// energy (modulation + detection) is per bit and tiny by comparison. In
// path-setup mode the electrical control mesh adds its own (enoc-modeled)
// energy. This structure — big static floor, small dynamic slope — is the
// shape R-T2/R-T3 must reproduce.
#pragma once

#include <cstdint>

#include "onoc/loss.hpp"
#include "onoc/onoc_network.hpp"

namespace sctm::onoc {

struct OnocEnergyBreakdown {
  double laser_pj = 0;     // electrical laser power x time
  double tuning_pj = 0;    // ring trimming x time
  double dynamic_pj = 0;   // modulation + detection per bit
  double ctrl_pj = 0;      // electrical control mesh (path-setup mode)
  double total_pj() const {
    return laser_pj + tuning_pj + dynamic_pj + ctrl_pj;
  }
  double watts(std::uint64_t cycles, double clock_ghz) const;
};

/// Energy of `net` over `elapsed_cycles` of simulated time. Uses the loss
/// budget implied by the network's own parameters; control-mesh energy is
/// the control EnocNetwork's own (enoc::compute_enoc_energy).
OnocEnergyBreakdown compute_onoc_energy(const OnocNetwork& net,
                                        std::uint64_t elapsed_cycles);

/// The loss-budget inputs `p` implies for a `nodes`-node MWSR crossbar: the
/// one derivation the network's fault BER, its energy and the analytic
/// screen share.
LossBudgetInputs budget_inputs_for(const OnocParams& p, int nodes);

}  // namespace sctm::onoc
