// Electrical NoC energy model (Orion-era constants).
//
// Dynamic energy is charged per micro-operation (buffer write/read, crossbar
// traversal, link traversal, allocator decision); static power leaks on every
// active network cycle per router. Absolute joules are only as good as the
// constants, but the ENoC-vs-ONOC *comparisons* (R-T2, R-T3) depend on the
// ratio structure, which these per-op models capture.
#pragma once

#include <cstdint>

#include "enoc/enoc_network.hpp"

namespace sctm::enoc {

struct EnocEnergyParams {
  // Per-operation dynamic energies in picojoules (45 nm-era, per flit of
  // 16 bytes; Orion 2.0 ballpark).
  double buffer_write_pj = 1.2;
  double buffer_read_pj = 1.0;
  double xbar_traversal_pj = 2.1;
  double link_traversal_pj = 3.5;   // 1 mm link at 16 B phit
  double arbitration_pj = 0.18;     // per SA/VA grant
  // Static leakage per router per cycle (all buffers + control), picojoules.
  double router_leakage_pj_per_cycle = 0.9;
  double clock_ghz = 2.0;
};

struct EnergyBreakdown {
  double buffer_pj = 0;
  double xbar_pj = 0;
  double link_pj = 0;
  double arbiter_pj = 0;
  double static_pj = 0;
  double total_pj() const {
    return buffer_pj + xbar_pj + link_pj + arbiter_pj + static_pj;
  }
  /// Average power in watts over `cycles` at `clock_ghz`.
  double watts(std::uint64_t cycles, double clock_ghz) const;
};

/// Applies the per-op energies to `ops`. `active_cycles` is the number of
/// cycles the network clock ran; `router_count` scales leakage.
EnergyBreakdown compute_enoc_energy(const RouterOps& ops, int router_count,
                                    std::uint64_t active_cycles,
                                    const EnocEnergyParams& params);

/// Energy of `net` since construction: its routers' summed counters
/// (EnocNetwork::router_ops), one leaking router per node, over its active
/// cycles.
EnergyBreakdown compute_enoc_energy(const EnocNetwork& net,
                                    const EnocEnergyParams& params = {});

}  // namespace sctm::enoc
