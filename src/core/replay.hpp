// Trace replay modes: the naive timestamped strawman and the
// Self-Correction Trace Model (the paper's contribution). ReplaySession
// (core/replay_session.hpp) is the engine that runs both.
//
// Naive replay injects every record at its captured timestamp. It is fast
// but frozen: when the target network is faster or slower than the capture
// network, the injected load no longer matches what a real system would do.
//
// Self-correcting replay rebuilds injection times from the dependency
// annotations on the fly: record r becomes eligible when all of its parents
// have arrived *in the replay*, and is injected at
//     t'(r) = max over deps (arrival'(parent) + slack),
// where slack = inject(r) − arrival(parent) as captured: ReplayTrace proves
// that identity at load, so slack is recomputed, never stored. Each delivery
// resolves its record's enforced dependencies at once; records that become
// eligible in the same cycle are injected together, sorted in capture order,
// by that cycle's one late-band flush (EligibilityBatcher).
// Dependency-free records anchor at their captured timestamps. Because every
// dependency points to an earlier record (ReplayTrace enforces it at
// load), a single event-driven pass yields the exact fixed point when
// dependencies are complete — replaying on the capture network reproduces
// the captured schedule bit-exactly (tested).
//
// Truncated dependencies model a bounded capture/replay budget: only the `W`
// tightest (smallest-slack, i.e. latest-arriving) dependencies are enforced
// online, as flagged children-CSR edges (build_kept_deps); each record
// also carries a baseline time (initially the captured timestamp) that acts
// as a lower bound. ReplaySession::run() then iterates: after each pass the
// baselines are re-derived from the full dependency list evaluated against
// the previous pass's arrival times, until injection times stop moving (mean
// shift below ReplayConfig::convergence_threshold) — the "self-correction ...
// in a reasonable period of time" trade-off knob. Before it simulates the
// next pass, run() checks whether the re-derived baselines prove that pass
// would repeat the last one event for event: every record keeps its
// baseline, or had one below its injection time and gets one no later than
// it. Then it stops without simulating that pass, at residual 0; the
// iteration count, event count and iteration log cover simulated passes
// only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/flat_map.hpp"
#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "core/replay_input.hpp"
#include "noc/network.hpp"

namespace sctm::core {

enum class ReplayMode { kNaive, kSelfCorrecting };

const char* to_string(ReplayMode m);

struct ReplayConfig {
  ReplayMode mode = ReplayMode::kSelfCorrecting;
  /// Max dependencies enforced online per record (smallest-slack first).
  /// Unlimited by default; ignored in naive mode.
  std::uint32_t dependency_window = std::numeric_limits<std::uint32_t>::max();
  /// Iterative refinement for truncated windows (see ReplaySession::run).
  int max_iterations = 8;
  /// Converged when the mean |Δinject| between passes drops below this
  /// (half a cycle: the schedule has stopped moving).
  static constexpr double convergence_threshold = 0.5;
  /// Replay is serial; kept because perfbench/bench.cpp prints this value.
  static constexpr unsigned threads = 1;
};

/// Outcome of one replay pass.
struct ReplayResult {
  /// Per-iteration observability record (the convergence trajectory the
  /// metrics document exports): pass number, mean |Δinject| against the
  /// previous pass (0 for the first / exactly-converged passes), kernel
  /// events executed by the pass, and its wall time.
  struct IterationRecord {
    int iter = 1;
    double residual = 0.0;
    std::uint64_t events = 0;
    double wall_seconds = 0.0;
  };

  /// Per record (same order as the trace): replayed times.
  std::vector<Cycle> inject_time;
  std::vector<Cycle> arrive_time;
  /// Predicted application runtime (latest arrival).
  Cycle runtime = 0;
  /// Kernel events executed across all simulated passes (cost metric,
  /// R-A2).
  std::uint64_t events = 0;
  /// Passes simulated (1 for single-pass engines). A pass proven to repeat
  /// the last one is not simulated and not counted.
  int iterations = 1;
  /// Mean |Δinject| of the final simulated pass against the one before it
  /// (0 when exactly converged, and after a proven repeat).
  double residual = 0.0;
  /// One record per simulated pass, in pass order.
  std::vector<IterationRecord> iteration_log;
  /// Stat-registry snapshot of the (final) pass's simulator — the target
  /// network's counters (transmissions, arbitration waits, scoreboard
  /// activity), surfaced in the run-metrics document.
  StatRegistry stats;

  Histogram latency_histogram() const;
};

/// Builds a replay network inside the given Simulator; ReplaySession calls
/// it at bind time and at the start of every pass. The network must have one
/// endpoint per trace node.
using NetworkFactory =
    std::function<std::unique_ptr<noc::Network>(Simulator&)>;

/// The dependencies replay enforces online under `config`, as one flag per
/// edge of rt's children CSR: every edge at full window, each record's
/// `dependency_window` smallest-(slack, parent id) dependencies — its
/// latest-arriving parents — under a shorter window, none in naive mode.
std::vector<bool> build_kept_deps(const ReplayTrace& rt,
                                  const ReplayConfig& config);

/// Batches records that become eligible at the same cycle so they can be
/// injected in capture order (same-cycle arbitration ties must resolve as
/// they did at capture). Allocation-free in steady state, upholding the
/// kernel invariant (DESIGN.md §7): the cycle→batch index is a
/// capacity-retaining FlatMap and batch storage is drawn from a recycled
/// vector pool — unlike the former std::unordered_map<Cycle, std::vector>,
/// which put a node allocation plus vector churn on every batch open/close.
class EligibilityBatcher {
 public:
  /// Appends `idx` to cycle `t`'s batch. Returns true when `t` had no open
  /// batch — the caller must then schedule the flush event for `t`.
  bool add(Cycle t, std::uint32_t idx) {
    if (const std::uint32_t* slot = slot_at_.find(t)) {
      pool_[*slot].push_back(idx);
      return false;
    }
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    pool_[slot].push_back(idx);
    slot_at_.insert(t, slot);
    return true;
  }

  /// Sorts cycle `t`'s batch ascending (record/capture order), invokes
  /// fn(idx) for each entry, and recycles the batch slot. No-op when `t` has
  /// no open batch. The mapping is retired before dispatch, so a re-entrant
  /// add() for the same cycle opens a fresh batch instead of corrupting the
  /// one being drained.
  template <typename Fn>
  void flush(Cycle t, Fn&& fn) {
    const std::uint32_t* found = slot_at_.find(t);
    if (found == nullptr) return;
    const std::uint32_t slot = *found;
    slot_at_.erase(t);
    std::sort(pool_[slot].begin(), pool_[slot].end());
    // Index-based: fn may grow the pool (re-entrant add for another cycle).
    for (std::size_t i = 0; i < pool_[slot].size(); ++i) fn(pool_[slot][i]);
    pool_[slot].clear();
    free_.push_back(slot);
  }

 private:
  FlatMap<Cycle, std::uint32_t> slot_at_;
  std::vector<std::vector<std::uint32_t>> pool_;
  std::vector<std::uint32_t> free_;
};

}  // namespace sctm::core
