// CMP full-system wiring: cores + L1s, L2 banks + directory, memory
// controllers, barrier manager, all over one pluggable noc::Network.
//
// This is the execution-driven front end of the simulator. It doubles as the
// trace *capture* source: every protocol message injection is reported to an
// optional observer together with its causes (the arrivals at the sending
// node that gated it), and every arrival to a second observer before its
// endpoint sees it. The observer records each arrival once and derives each
// dependency's endpoint slack from it (trace/capture.hpp) — exactly the
// records the Self-Correction Trace Model consumes.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "fullsys/app.hpp"
#include "fullsys/barrier.hpp"
#include "fullsys/core_model.hpp"
#include "fullsys/fabric.hpp"
#include "fullsys/l2bank.hpp"
#include "fullsys/memctrl.hpp"
#include "fullsys/params.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"

namespace sctm::fullsys {

/// One captured injection: the message plus its causes, the messages whose
/// *arrival* at the sending node gated it. `causes` views the sender's list
/// and is valid only during the observer call.
struct InjectionEvent {
  noc::Message msg;
  ProtoMsg proto = ProtoMsg::kGetS;
  std::span<const MsgId> causes;
};

class CmpSystem final : public Component, public Fabric {
 public:
  /// The network must span topo.node_count() endpoints. `streams` is one op
  /// stream per core (see build_app); stream count must equal node count.
  CmpSystem(Simulator& sim, std::string name, noc::Network& net,
            const noc::Topology& topo, const FullSysParams& params,
            std::vector<std::vector<Op>> streams);

  /// Observer for trace capture; set before start().
  void set_inject_observer(std::function<void(const InjectionEvent&)> fn) {
    observer_ = std::move(fn);
  }

  /// Observer for message arrivals (delivery time stamping); set before
  /// start(). Called before the message is dispatched to its endpoint, so an
  /// arrival is observed before any send it causes.
  void set_deliver_observer(std::function<void(const noc::Message&)> fn) {
    deliver_observer_ = std::move(fn);
  }

  /// Schedules core startup. Call once, then run the simulator.
  void start();

  /// Runs the simulation to quiescence and returns the application runtime
  /// (cycle at which the last core finished).
  Cycle run_to_completion();

  /// Observability of the last run_to_completion() call: host wall time and
  /// kernel events executed (feeds the "execute" phase of the run-metrics
  /// document).
  double run_wall_seconds() const { return run_wall_seconds_; }
  std::uint64_t run_events() const { return run_events_; }

  bool finished() const;
  Cycle app_runtime() const;

  // Fabric implementation.
  MsgId send(ProtoMsg type, NodeId src, NodeId dst, std::uint64_t line,
             const std::vector<MsgId>& causes) override;
  NodeId home_of(std::uint64_t line) const override;
  NodeId mc_for(std::uint64_t line) const override;

  const std::vector<NodeId>& mc_nodes() const { return params_.mc_nodes; }
  std::uint64_t messages_sent() const { return next_msg_id_ - 1; }
  Core& core(NodeId n) { return *cores_[static_cast<std::size_t>(n)]; }
  L2Bank& bank(NodeId n) { return *banks_[static_cast<std::size_t>(n)]; }

  /// Coherence audit — run at quiescence. Checks the protocol's global
  /// invariants over all L1s and directories:
  ///  * single writer: at most one L1 holds a line in M;
  ///  * an M copy is registered: its directory entry says M with that owner;
  ///  * an S copy is registered: the directory lists that L1 as a sharer
  ///    (the converse may not hold — silent S evictions leave stale sharer
  ///    bits, which is safe over-approximation);
  ///  * no bank has an in-flight transaction.
  /// Returns human-readable violations (empty == coherent).
  std::vector<std::string> audit_coherence() const;

 private:
  void on_deliver(const noc::Message& msg);

  noc::Network& net_;
  noc::Topology topo_;
  FullSysParams params_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::unique_ptr<L2Bank>> banks_;
  std::unordered_map<NodeId, std::unique_ptr<MemCtrl>> mcs_;
  std::unique_ptr<BarrierManager> barrier_;

  std::function<void(const InjectionEvent&)> observer_;
  std::function<void(const noc::Message&)> deliver_observer_;
  /// Messages are numbered 1, 2, ... in send order.
  MsgId next_msg_id_ = 1;
  double run_wall_seconds_ = 0.0;
  std::uint64_t run_events_ = 0;

  std::uint64_t& stat_msgs_;
};

}  // namespace sctm::fullsys
