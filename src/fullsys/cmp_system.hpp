// CMP full-system wiring: cores + L1s, L2 banks + directory, memory
// controllers, barrier manager, all over one pluggable noc::Network.
//
// This is the execution-driven front end of the simulator, and it records
// its own run as the trace the Self-Correction Trace Model consumes: each
// send appends a record whose parents are its causes (the arrivals at the
// sending node that gated it), and each delivery stamps its record's
// arrival before the endpoint sees the message. Message ids number the
// sends 1, 2, ..., so message `id` is record `id - 1`.
#pragma once

#include <memory>
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
#include "trace/record.hpp"

namespace sctm::fullsys {

class CmpSystem final : public Component, public Fabric {
 public:
  /// The network must span topo.node_count() endpoints. `streams` is one op
  /// stream per core (see build_app); stream count must equal node count.
  CmpSystem(Simulator& sim, std::string name, noc::Network& net,
            const noc::Topology& topo, const FullSysParams& params,
            std::vector<std::vector<Op>> streams);

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

  /// Hands over the run's records, one per send in send order, once the run
  /// has drained. Throws std::logic_error when a message never arrived.
  trace::Records take_records();

  // Fabric implementation. A send whose cause has not arrived throws
  // std::logic_error, and one past 2^32 - 1 records or parents
  // std::length_error.
  MsgId send(ProtoMsg type, NodeId src, NodeId dst, std::uint64_t line,
             const std::vector<MsgId>& causes) override;
  NodeId home_of(std::uint64_t line) const override;
  NodeId mc_for(std::uint64_t line) const override;

  const std::vector<NodeId>& mc_nodes() const { return params_.mc_nodes; }
  std::uint64_t messages_sent() const { return records_.size(); }
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

  trace::Records records_;
  double run_wall_seconds_ = 0.0;
  std::uint64_t run_events_ = 0;

  std::uint64_t& stat_msgs_;
};

}  // namespace sctm::fullsys
