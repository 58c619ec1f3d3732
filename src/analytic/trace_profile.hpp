// Trace profiling: the one O(records) pass of the analytic fast path.
//
// Screening a design space analytically only pays off if the per-candidate
// cost is independent of trace length, so everything a latency estimator
// needs is reduced here, once, into a TraceProfile:
//
//  * offered load — the active (source, destination, class) flows, each with
//    its message count and mean payload, so a candidate's route walk can
//    reconstruct per-link / per-channel arrival rates without touching the
//    records again;
//  * message-size moments — first and second moment per class (the M/G/1
//    waiting terms need E[S^2], i.e. the squared coefficient of variation);
//  * dependency summary — fan-in and root (dependency-free) counts;
//  * the critical-path skeleton — for every record, the dominant dependency
//    chain reaching it is summarized as a line `base + depth * L`, where
//    `base` is the chain's anchor inject time plus its accumulated slack and
//    `depth` is the number of network traversals on the chain. The replayed
//    completion time of the whole trace, on a network with mean latency L,
//    is approximated by the upper envelope of these lines — built once here
//    (convex hull over distinct depths), evaluated in O(log hull) per
//    candidate. On a single anchored chain over a fixed-latency network the
//    envelope is *exact*: it reproduces replay's t'(r) recursion.
//
// Profiling costs O(records + flows log flows) and keeps O(flows) offered
// load, whatever the node count. Scoring a candidate then costs
// O(flows + active pairs * hops + log hull) — for a 4x4 mesh a few
// microseconds — versus a full replay pass at O(records).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "core/replay_input.hpp"
#include "noc/message.hpp"

namespace sctm::analytic {

/// Per-class payload moments (bytes).
struct ClassStats {
  std::uint64_t messages = 0;
  double sum_bytes = 0;
  double sum_bytes_sq = 0;

  double mean_bytes() const {
    return messages == 0 ? 0.0 : sum_bytes / static_cast<double>(messages);
  }
  /// Squared coefficient of variation of the payload size (0 when constant).
  double cv_sq() const;
};

struct TraceProfile {
  // -- shape ---------------------------------------------------------------
  std::int32_t nodes = 0;
  std::uint64_t records = 0;
  Cycle first_inject = 0;
  Cycle last_inject = 0;
  Cycle capture_runtime = 0;

  /// Capture-side injection span the offered-load rates are normalized by
  /// (>= 1). Rates are an approximation: replay on a slower candidate
  /// stretches the real injection process, so estimated utilizations are
  /// upper bounds near saturation — see DESIGN.md §12.
  Cycle span() const {
    return last_inject >= first_inject ? last_inject - first_inject + 1 : 1;
  }

  // -- offered load ------------------------------------------------------
  /// One active (source, destination, class) bucket: the screen's one
  /// offered-load representation. `flows` lists every bucket that carries a
  /// message, in ascending (src, dst, cls) order, so the flows of one pair
  /// are adjacent and scoring walks O(active flows) entries.
  struct Flow {
    NodeId src = 0;
    NodeId dst = 0;
    std::int32_t cls = 0;
    double msgs = 0;
    double mean_bytes = 0;
  };
  std::vector<Flow> flows;

  // -- size distribution ---------------------------------------------------
  std::array<ClassStats, noc::kMsgClassCount> cls{};

  // -- dependency structure ------------------------------------------------
  std::uint64_t roots = 0;  // dependency-free (anchored) records
  double mean_fanin = 0;    // dep edges per record
  std::uint32_t critical_depth = 0;  // records on the longest chain

  // -- critical-path skeleton (upper envelope of base + depth * L) ---------
  struct ChainLine {
    double base = 0;   // anchor inject + accumulated slack (cycles)
    double depth = 0;  // network traversals on the chain (slope)
  };
  /// Envelope lines, ascending slope; breakpoints[i] is where line i+1
  /// overtakes line i.
  std::vector<ChainLine> hull;
  std::vector<double> hull_breaks;

  /// max over chains of (base + depth * mean_latency): the estimated
  /// completion (last arrival) of the trace on a network whose per-message
  /// latency averages `mean_latency` cycles. O(log hull).
  double hull_eval(double mean_latency) const;
};

/// Single streaming pass over a finalized ReplayTrace.
TraceProfile profile_trace(const core::ReplayTrace& rt);

}  // namespace sctm::analytic
