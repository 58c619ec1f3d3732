// Reusable replay sessions: one Simulator + one network + all pass-scoped
// buffers, recycled across passes and across runs.
//
// The replay engines are multi-pass by nature (iterative self-correction)
// and multi-run by usage (design-space exploration replays one trace over
// dozens of candidates). The original engine rebuilt the Simulator, the
// network and every per-pass vector from scratch for each pass — paying
// construction, allocation and page-faulting costs that dwarf the event
// kernel on small traces. A ReplaySession instead owns all of that state
// and threads the reset() protocol through it between passes:
//
//   sim_.reset()    — queue cleared with its tie-break counter rewound,
//                     stat values zeroed in place (entries survive, so
//                     components' cached references stay valid),
//   net_->reset()   — routers / arbitration / pending tables back to
//                     freshly-constructed state, capacity retained.
//
// Reset-reuse is bit-identical to fresh construction (the differential
// tests replay every network kind both ways and compare full schedules),
// and passes 2..N run without a single heap allocation (asserted by the
// alloc-counting test).
//
// Within a pass the network's delivery callback does the dependency work: it
// stamps the arrival, folds it into each kept child's ready time and, when a
// child's last kept parent has arrived, adds the child to its cycle's
// eligibility batch. Opening a cycle's batch schedules that cycle's one
// late-band flush, which injects the batch in capture order.
//
// The session is the one replay engine. run_replay() (core/driver.hpp) runs
// a throwaway one; exploration keeps one long-lived session per worker and
// rebind()s it to each candidate: an equal spec keeps the network, any other
// spec rebuilds it through make_factory.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/replay.hpp"

namespace sctm::core {

class ReplaySession {
 public:
  /// Binds the session to `rt` (borrowed; must outlive the session) and
  /// builds the network once from `spec`, which rebind(NetSpec) compares
  /// against.
  ReplaySession(const ReplayTrace& rt, const NetSpec& spec,
                const ReplayConfig& config);

  /// Same over a network no NetSpec can name. The first rebind() always
  /// rebuilds, since there is no bound spec to compare against.
  ReplaySession(const ReplayTrace& rt, const NetworkFactory& factory,
                const ReplayConfig& config);

  ReplaySession(const ReplaySession&) = delete;
  ReplaySession& operator=(const ReplaySession&) = delete;

  /// Full engine on the current network: one pass in naive / full-window
  /// mode, iterative refinement to a fixed point for truncated windows.
  /// The returned reference is into the session; it stays valid until the
  /// next run. Includes a final stat snapshot.
  const ReplayResult& run();

  /// One replay pass: reset, anchor dependency-free records at their
  /// captured times, drain. The stat snapshot is deferred to
  /// snapshot_stats() — after a warmup pass this makes repeated calls
  /// allocation-free, which the steady-state alloc test asserts. The result
  /// reference stays valid until the next pass.
  const ReplayResult& run_pass();

  /// Rebinds to `spec`, keeping the trace binding, kept-edge flags and every
  /// pass buffer. A spec equal to the bound one keeps the network (the next
  /// pass resets it); any other spec rebuilds it through make_factory,
  /// erasing the old network's stat entries. A spec whose node count differs
  /// from the trace's throws std::invalid_argument and leaves the session
  /// bound to its old network and spec. If the rebuild itself throws, no
  /// network is bound: run(), run_pass() and network() throw
  /// std::logic_error naming the failed rebind until a later rebind
  /// succeeds.
  void rebind(const NetSpec& spec);

  /// Copies the simulator's stat registry into result().stats (the one
  /// allocating step run_pass() defers).
  void snapshot_stats();

  /// Moves the result out. The session's result buffers are left empty;
  /// the next run()/run_pass() re-sizes them.
  ReplayResult take_result();

  const ReplayResult& result() const { return result_; }
  const noc::Network& network() const { return bound_network(); }
  noc::Network& network() { return bound_network(); }

 private:
  void bind_network(const NetworkFactory& factory);
  noc::Network& bound_network() const;  // throws after a failed rebind
  void run_pass_prepared();  // bound_ already filled; core of every pass
  void inject_record(std::uint32_t idx);
  void mark_eligible(std::uint32_t idx, Cycle t);
  void on_deliver(const noc::Message& msg);
  std::uint32_t kept_count(std::uint32_t i) const;  // kept edges into i

  const ReplayTrace& rt_;
  ReplayConfig config_;
  bool naive_;

  std::vector<bool> kept_;  // per children-CSR edge: enforced under config_

  Simulator sim_;
  std::unique_ptr<noc::Network> net_;  // null only after a failed rebind
  std::optional<NetSpec> bound_spec_;  // empty for a factory-built network
  std::string rebind_target_;          // spec of the latest rebuild

  // Pass-scoped state, sized once to rt_.size() and recycled every pass.
  std::vector<std::uint32_t> pending_;  // unresolved kept deps per record
  std::vector<Cycle> ready_;   // max(arrival' + slack) over resolved deps
  std::vector<Cycle> bound_;   // per-record lower bound for this pass
  std::vector<Cycle> prev_inject_;  // previous pass's schedule (residual)
  EligibilityBatcher eligible_;
  std::vector<ReplayResult::IterationRecord> log_;  // run()'s pass log

  ReplayResult result_;
  double pass_wall_ = 0.0;  // wall seconds of the latest pass
};

}  // namespace sctm::core
