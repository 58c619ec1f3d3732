// Replay sessions: one trace binding, one Simulator and the trace-sized
// pass state, kept across passes and across runs; a pass builds its network.
//
// The replay engines are multi-pass by nature (iterative self-correction)
// and multi-run by usage (design-space exploration replays one trace over
// dozens of candidates). What is sized by the trace is built once per
// session: the kept-edge flags, the per-record pass buffers and the
// eligibility batcher, plus the Simulator, whose event-wheel buckets keep
// their capacity. What a pass simulates is built per pass: each pass
// destroys the previous network, rewinds the kernel (Simulator::reset(),
// which also erases the stat entries) and builds a new network through the
// bound factory. Building a network costs a small share of a pass (DESIGN.md
// §9), and a network that never outlives its pass needs no way to rewind
// itself.
//
// Within a pass the network's delivery callback does the dependency work: it
// stamps the arrival, folds it into each kept child's ready time and, when a
// child's last kept parent has arrived, adds the child to its cycle's
// eligibility batch. Opening a cycle's batch schedules that cycle's one
// late-band flush, which injects the batch in capture order.
//
// The session is the one replay engine. run_replay() (core/driver.hpp) runs
// a throwaway one; exploration keeps one long-lived session per worker and
// rebind()s it to each candidate, which binds the candidate's factory and
// builds its network.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/replay.hpp"

namespace sctm::core {

class ReplaySession {
 public:
  /// Binds the session to `rt` (borrowed; must outlive the session) and to
  /// make_factory(spec), and builds the network, so a spec whose node count
  /// differs from the trace's throws std::invalid_argument here.
  ReplaySession(const ReplayTrace& rt, const NetSpec& spec,
                const ReplayConfig& config);

  /// Same over a network no NetSpec can name.
  ReplaySession(const ReplayTrace& rt, NetworkFactory factory,
                const ReplayConfig& config);

  ReplaySession(const ReplaySession&) = delete;
  ReplaySession& operator=(const ReplaySession&) = delete;

  /// Full engine on the current network: one pass in naive / full-window
  /// mode, iterative refinement to a fixed point for truncated windows.
  /// The returned reference is into the session; it stays valid until the
  /// next run. Includes a final stat snapshot.
  const ReplayResult& run();

  /// One replay pass: rewind the kernel, build the network, anchor
  /// dependency-free records at their captured times, drain. The stat
  /// snapshot is deferred to snapshot_stats(), so a timed pass does not
  /// copy the registry. The result reference stays valid until the next
  /// pass.
  const ReplayResult& run_pass();

  /// Rebinds to `spec`, keeping the trace binding, kept-edge flags and every
  /// pass buffer: binds make_factory(spec) and builds its network, erasing
  /// the old network's stat entries. A spec whose node count differs from
  /// the trace's throws std::invalid_argument and leaves the session bound
  /// to its old factory and network. If the build itself throws, no network
  /// is bound: run(), run_pass() and network() throw std::logic_error naming
  /// the failed rebind until a later rebind succeeds.
  void rebind(const NetSpec& spec);

  /// Copies the simulator's stat registry into result().stats.
  void snapshot_stats();

  /// Moves the result out. The session's result buffers are left empty;
  /// the next run()/run_pass() re-sizes them.
  ReplayResult take_result();

  const ReplayResult& result() const { return result_; }
  const noc::Network& network() const { return bound_network(); }
  noc::Network& network() { return bound_network(); }

 private:
  void build_network();  // the old network goes, then the kernel rewinds
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
  NetworkFactory factory_;             // builds each pass's network
  std::unique_ptr<noc::Network> net_;  // null only after a failed rebind
  std::string rebind_target_;          // spec of the latest rebind

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
