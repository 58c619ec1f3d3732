// Fault-injection configuration.
//
// A FaultSpec is the declarative description of an unreliable fabric: static
// per-event probabilities for each fault class, the timeout constants of the
// recovery protocol, and one root seed from which every fault stream is
// derived. The spec is plain data with memberwise equality so it can ride in
// core::NetSpec (exploration keys session reuse on spec equality) and be
// parsed from the same "fault.*" config vocabulary everywhere (CLI --faults
// files, experiment configs, explore candidates). A default-constructed spec
// is inert: enabled() is false and no FaultModel is built from it, so
// fault-free runs execute byte-for-byte the code they always did.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/units.hpp"

namespace sctm::fault {

struct FaultSpec {
  /// Root seed of every fault stream (child streams are derived per fault
  /// class and per channel, see FaultModel).
  std::uint64_t seed = 1;

  // --- ENoC plane: drawn once per flit link traversal ----------------------
  double enoc_flit_corrupt_rate = 0.0;  // payload corrupted crossing a link
  double enoc_flit_drop_rate = 0.0;     // flit symbol lost on a link
  double enoc_link_stuck_rate = 0.0;    // stuck-at episode onset probability
  /// Duration of one stuck-at episode: every flit crossing the link while it
  /// is stuck is corrupted.
  Cycle enoc_link_stuck_cycles = 32;

  // --- ONoC plane ----------------------------------------------------------
  double onoc_token_loss_rate = 0.0;  // per arbitration request
  /// A lost token regenerates at the ring's home node after this timeout;
  /// the channel is unusable while it does.
  Cycle onoc_token_regen_cycles = 64;
  double onoc_reservation_loss_rate = 0.0;  // per path-setup grant
  /// Writer-side timeout before a lost grant is re-requested.
  Cycle onoc_reservation_timeout = 128;
  /// Residual microring thermal drift (deg C RMS, after trimming). Raises
  /// the optical bit-error rate through the loss budget (onoc/loss.hpp).
  double onoc_ring_drift_sigma_c = 0.0;
  /// Laser power degradation (aging) in dB, eroding the budget margin.
  double onoc_laser_degradation_db = 0.0;

  // --- Message-layer recovery ----------------------------------------------
  /// Retransmissions attempted per message before it is surfaced anyway and
  /// reported lost (the fabric stays lossless so replay never hangs).
  int max_retries = 3;
  /// Detection + NACK turnaround before a corrupted message is re-injected.
  Cycle nack_cycles = 16;

  bool operator==(const FaultSpec&) const = default;

  /// True when any fault class can actually fire. Disabled specs build no
  /// FaultModel, so the fault-free path is untouched (and --stats-json
  /// output is byte-identical to a build without faults).
  bool enabled() const;

  /// Throws std::invalid_argument on out-of-range fields (rates outside
  /// [0,1], non-positive timeouts, negative retry budget).
  void validate() const;

  /// Returns a copy with a different root seed (composite networks give each
  /// layer its own derived stream family).
  FaultSpec with_seed(std::uint64_t s) const;

  /// Reads "fault.*" keys with these defaults. A "fault.*" key it does not
  /// read is a hard error (Config::reject_unread), so a typo'd rate can't
  /// silently leave the fabric perfect. Validates before returning.
  static FaultSpec from_config(const Config& cfg);

  /// ("fault.<key>", value) pairs for every non-default field — what run
  /// manifests echo so a metrics document names the fault regime it ran
  /// under. Empty when disabled.
  std::vector<std::pair<std::string, std::string>> manifest_entries() const;
};

}  // namespace sctm::fault
