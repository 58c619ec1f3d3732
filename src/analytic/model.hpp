// Tier-0 analytic latency estimator, one class for every NetKind.
//
// AnalyticModel maps a TraceProfile plus a candidate NetSpec to an
// AnalyticResult in O(flows + active pairs * hops) — no events, no
// records. The estimator follows the priority-class queueing treatment of
// Mandal et al. ("Analytical Performance Models for NoCs with Multiple
// Priority Traffic Classes"): each shared resource (a mesh link, an optical
// receive/source channel) is an M/G/1-style station fed by the profile's
// flows, and a message's latency is its zero-load path time plus the
// waiting terms of every station on its path. DESIGN.md §12 gives the
// per-kind equations and the known blind spots.
//
// Estimates are consistent with replay in the two regimes the tests pin
// down: they agree exactly with replay on a contention-free single-flow
// trace over the ideal network, and they are monotone in offered load and
// in `link_latency`.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "analytic/trace_profile.hpp"
#include "core/driver.hpp"
#include "noc/route_table.hpp"

namespace sctm::analytic {

struct AnalyticResult {
  /// Estimated application-visible runtime (last arrival), cycles.
  double est_runtime = 0;
  /// Estimated mean / p99 message latency, cycles.
  double est_mean_latency = 0;
  double est_p99 = 0;
  /// Mean latency per message class (0 for classes absent from the trace).
  std::array<double, noc::kMsgClassCount> per_class{};
};

/// The latency estimator bound to one candidate spec.
class AnalyticModel {
 public:
  /// Caches what scoring reads besides the profile: the routing table of the
  /// electrical plane (enoc, hybrid) and the optical plane's fault BER
  /// (onoc-*, hybrid). Throws where the simulators' own constructors do:
  /// invalid optical parameters for the onoc-* kinds, and a fabric the
  /// electrical plane's routing table cannot be built on (a disconnected
  /// table-routed topology) for enoc and hybrid.
  explicit AnalyticModel(const core::NetSpec& spec);

  /// Full estimate: the kind's latency core plus the profile's
  /// critical-path envelope and throughput bound combined into
  /// est_runtime.
  AnalyticResult estimate(const TraceProfile& p) const;

 private:
  core::NetSpec spec_;
  std::optional<noc::RoutingTable> routes_;  // electrical plane
  double ber_ = 0;                           // optical plane, 0 fault-free
};

/// Builds the estimator for `spec`.
std::unique_ptr<AnalyticModel> make_model(const core::NetSpec& spec);

/// One-shot convenience: AnalyticModel(spec).estimate(p).
AnalyticResult estimate(const TraceProfile& p, const core::NetSpec& spec);

}  // namespace sctm::analytic
