#include "enoc/power.hpp"

namespace sctm::enoc {

double EnergyBreakdown::watts(std::uint64_t cycles, double clock_ghz) const {
  if (cycles == 0) return 0.0;
  const double seconds = static_cast<double>(cycles) / (clock_ghz * 1e9);
  return total_pj() * 1e-12 / seconds;
}

EnergyBreakdown compute_enoc_energy(const RouterOps& ops, int router_count,
                                    std::uint64_t active_cycles,
                                    const EnocEnergyParams& params) {
  const auto pj = [](std::uint64_t count, double per_op) {
    return static_cast<double>(count) * per_op;
  };
  EnergyBreakdown out;
  out.buffer_pj = pj(ops.buffer_writes, params.buffer_write_pj) +
                  pj(ops.buffer_reads, params.buffer_read_pj);
  out.xbar_pj = pj(ops.xbar_traversals, params.xbar_traversal_pj);
  out.link_pj = pj(ops.link_traversals, params.link_traversal_pj);
  out.arbiter_pj = pj(ops.sa_grants + ops.va_grants, params.arbitration_pj);
  out.static_pj = params.router_leakage_pj_per_cycle *
                  static_cast<double>(router_count) *
                  static_cast<double>(active_cycles);
  return out;
}

EnergyBreakdown compute_enoc_energy(const EnocNetwork& net,
                                    const EnocEnergyParams& params) {
  return compute_enoc_energy(net.router_ops(), net.node_count(),
                             net.active_cycles(), params);
}

}  // namespace sctm::enoc
