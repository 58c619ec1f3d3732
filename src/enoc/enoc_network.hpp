// Electrical NoC: routers + links + message segmentation/reassembly.
//
// This is the "baseline NOC simulator" of the paper's case study: a
// cycle-accurate VC wormhole mesh/torus/ring. The network self-clocks: it
// ticks only while !idle() (some injected message is undelivered, a
// corrupted one awaiting its retransmission included), so an idle network
// costs no events (crucial for trace replay speed).
//
// Quiescence-aware scheduling: within a running clock, only *active* routers
// are ticked. A router is active while it holds flits (injection backlog or
// occupied input VCs); it is marked active when a message is injected at it
// or a flit arrives over a link, and drops out of the active set the moment
// its tick reports no remaining work. The active set is a bitmap drained in
// ascending router-id order every cycle — exactly the order the seed's
// tick-everything loop used — so datapath timing, arbitration history and
// the activity hash are bit-identical to ticking all routers, at O(active)
// instead of O(N) cost per cycle. Idle-router ticks are provably no-ops
// (every pipeline phase early-outs on empty buffers), which the exhaustive
// tick mode (set_exhaustive_tick_for_test) lets tests verify directly.
//
// Side effects as they happen: a router hands each forward, ejection and
// credit to the network the moment its tick emits it (forward(), eject(),
// credit(), inline below so they compile into the router's tick). Routers
// tick in ascending id order, so router-id order, then emission order, fixes
// the wire FIFO order, the order of fault draws and the delivery order.
// Every link and credit path has latency >= 1, so nothing a router emits in
// cycle t can be observed by another router before t+1. An ejection that
// completes a message delivers it inside the tick, and the delivery may
// inject at any router; the injection stage pulls only flits injected before
// now, so the new message waits for the next cycle wherever it is staged.
// The scan clears a router's scoreboard bit right after that router's own
// tick, so an activation of a router already passed survives; an idle router
// activated ahead of the scan is ticked this cycle, and that tick only
// counts (its staged flits were injected now).
// Deliveries, fault draws and the activity hash keep exactly the order of
// ticking every router and applying its side effects at the end of the
// cycle. The exhaustive oracle ticks through the same path.
//
// Wire FIFOs: a forward pushes the flit, its destination and its due cycle
// onto the link FIFO; a credit does the same on the credit FIFO. The
// destination and its input port are the topology's neighbor and arrival
// port, read inline from its shared port tables. Neither FIFO schedules an
// event: each clock
// tick first lands every link entry due now and every credit entry due at
// or before now, then scans. Every link entry has the same latency
// (params.link_latency), as does every credit entry, so each FIFO is in due
// order. A flit's message is undelivered while the flit is on the wire, so
// the clock ticks on its due cycle; a link entry found past its due cycle
// throws. A credit can outlive the clock (the last tail ejects while its
// credits are in flight) and lands at the next tick, which is exact because
// nothing outside a tick reads credits. Landing at the start of the tick is
// exact too: nothing that runs earlier in the cycle reads input buffers or
// credits (inject writes only the staging ring, which the router pulls only
// for flits injected before now).
//
// Parameters, the routing table and every router datapath are fixed at
// construction.
#pragma once

#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "enoc/params.hpp"
#include "enoc/router.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"

namespace sctm::enoc {

class EnocNetwork final : public noc::Network {
 public:
  EnocNetwork(Simulator& sim, std::string name, const noc::Topology& topo,
              const EnocParams& params);

  /// Segments `msg` into params().flits_for(size_bytes) flits. Throws
  /// std::invalid_argument naming the message id and size when that count
  /// does not fit the 32-bit flit counters (reachable with a 1-byte flit).
  void inject(noc::Message msg) override;

  /// Fault injection (DESIGN.md §11): link-level faults — payload
  /// corruption, flit drop, stuck-at episodes — are drawn per link traversal
  /// as routers emit their hops, in router-id then emission order. Faults
  /// corrupt *payloads*, never flow control: the wire symbol still traverses
  /// (wormhole/credit state untouched), detection happens at tail
  /// reassembly, recovery is a NACK + source re-injection bounded by the
  /// spec's retry budget.
  void install_fault_model(const fault::FaultSpec& spec) override;

  const noc::Topology& topology() const { return topo_; }
  /// The network-owned routing table (built once here, shared by every
  /// router).
  const noc::RoutingTable& routes() const { return routes_; }
  const EnocParams& params() const { return params_; }
  Router& router(NodeId n) { return *routers_[static_cast<std::size_t>(n)]; }

  /// Cycles during which the network clock was running (power accounting).
  std::uint64_t active_cycles() const { return active_cycles_; }

  /// Micro-operation counts summed over every router (power accounting).
  RouterOps router_ops() const {
    RouterOps sum;
    for (const auto& r : routers_) r->add_ops_to(sum);
    return sum;
  }

  /// Individual router ticks executed (quiescence metric: with the activity
  /// scoreboard this scales with flit occupancy, not node_count() *
  /// active_cycles()).
  std::uint64_t router_ticks() const { return router_ticks_; }

  /// Test hook: tick every router each cycle (the seed scheduling policy)
  /// instead of draining the active set. Behaviour must be bit-identical;
  /// the quiescence regression test asserts it.
  void set_exhaustive_tick_for_test(bool on) { exhaustive_tick_ = on; }

  /// Order-sensitive hash over every flit hop and ejection (msg, seq, node,
  /// port, cycle). Two runs with identical datapath behaviour produce
  /// identical hashes — the determinism and replay-fixed-point tests compare
  /// these to catch divergence that aggregate stats would mask.
  std::uint64_t activity_hash() const { return activity_hash_; }

 private:
  friend class Router;

  struct PendingMsg;

  // Side effects of router `node`'s tick, in its emission order. forward:
  // a flit leaves through `out_dir`; eject: a flit leaves through the local
  // port; credit: the slot of (`in_dir`, `vc`) freed, for the upstream
  // router.
  void forward(NodeId node, int out_dir, const Flit& flit);
  void eject(NodeId node, const Flit& flit);
  void credit(NodeId node, int in_dir, int vc);

  // Folds one flit hop (or, with port 7, an ejection) into activity_hash_.
  void hash_hop(NodeId node, int port, const Flit& flit);
  // The tail of `pm`'s message has ejected: reassembly check, then delivery
  // or recovery. `pm` is erased before the delivery.
  void finish_message(PendingMsg& pm);
  [[noreturn, gnu::cold, gnu::noinline]] void fail(const char* what) const;

  // Fault path (wire handlers and event dispatch).
  void apply_link_faults(NodeId node, int out_dir, const Flit& flit);
  void handle_corrupt_message(const noc::Message& msg);
  void reinject_for_retry(const noc::Message& msg);

  // Flit count of `msg`; throws when it does not fit 32 bits.
  std::uint32_t flit_count(const noc::Message& msg) const;

  // Delivers the wire FIFO entries due by now; the first step of each tick.
  void land_wires();

  void tick();
  void ensure_ticking();
  void schedule_tick();
  void mark_active(NodeId n) {
    active_bits_[static_cast<std::size_t>(n) >> 6] |=
        std::uint64_t{1} << (static_cast<std::size_t>(n) & 63);
  }

  struct WireFlit {
    Cycle due = 0;
    NodeId node = kInvalidNode;  // receiving router
    int port = 0;                // its input port
    Flit flit;
  };
  struct WireCredit {
    Cycle due = 0;
    NodeId node = kInvalidNode;  // upstream router
    int port = 0;                // its output port
    int vc = 0;
  };

  struct PendingMsg {
    noc::Message msg;
    /// Any flit of this message hit a fault in transit; the reassembly check
    /// at tail ejection sees it and triggers recovery.
    bool fault_bad = false;
  };

  noc::Topology topo_;
  EnocParams params_;
  noc::RoutingTable routes_;
  std::vector<std::unique_ptr<Router>> routers_;
  /// In-flight message table. Open-addressing with retained capacity: the
  /// per-message insert/erase pair stops hitting the heap once the table has
  /// grown to the run's peak concurrency.
  FlatMap<MsgId, PendingMsg> pending_;
  /// Activity scoreboard: bit n set == router n has (or may have) work.
  std::vector<std::uint64_t> active_bits_;
  /// Stuck-at fault state, indexed node * link_stride_ + out_dir: the cycle
  /// until which the link garbles every crossing flit. Empty unless a fault model is installed. The stride is the
  /// topology's max directional port count (file fabrics may exceed the
  /// lattice kinds' fixed radix).
  std::size_t link_stride_ = 0;
  std::vector<Cycle> link_stuck_until_;
  /// Flits and credits on the wire, in delivery order (capacity retained).
  Ring<WireFlit> link_wire_;
  Ring<WireCredit> credit_wire_;
  bool ticking_ = false;
  bool exhaustive_tick_ = false;
  std::uint64_t active_cycles_ = 0;
  std::uint64_t router_ticks_ = 0;
  std::uint64_t activity_hash_ = 0;
};

// --- Wire handlers: inline, so they compile into Router::tick -------------

inline void EnocNetwork::hash_hop(NodeId node, int port, const Flit& flit) {
  // FNV-1a style mixing.
  const std::uint64_t v = (static_cast<std::uint64_t>(now()) << 24) ^
                          (flit.msg << 8) ^
                          (static_cast<std::uint64_t>(flit.seq) << 4) ^
                          static_cast<std::uint64_t>(node * 8 + port);
  activity_hash_ ^= v + 0x9e3779b97f4a7c15ULL + (activity_hash_ << 6) +
                    (activity_hash_ >> 2);
}

inline void EnocNetwork::forward(NodeId node, int out_dir, const Flit& flit) {
  hash_hop(node, out_dir, flit);
  if (fault_model() != nullptr) apply_link_faults(node, out_dir, flit);
  const NodeId next = topo_.neighbor(node, out_dir);
  if (next == kInvalidNode) fail("flit forwarded off the fabric edge");
  link_wire_.push_back({now() + params_.link_latency, next,
                        topo_.arrival_port(node, out_dir), flit});
}

// A message's flits eject in order, so its tail flit completes it.
inline void EnocNetwork::eject(NodeId node, const Flit& flit) {
  hash_hop(node, 7, flit);
  if (flit.dst != node) fail("flit ejected at wrong node");
  if (!flit.is_tail) return;
  PendingMsg* pm = pending_.find(flit.msg);
  if (pm == nullptr) fail("ejected flit of unknown message");
  finish_message(*pm);
}

// The credit for input port `in_dir` goes to the router behind it, for its
// output port facing `node`.
inline void EnocNetwork::credit(NodeId node, int in_dir, int vc) {
  const NodeId up = topo_.neighbor(node, in_dir);
  if (up == kInvalidNode) fail("credit to nonexistent neighbor");
  credit_wire_.push_back({now() + params_.credit_latency, up,
                          topo_.arrival_port(node, in_dir), vc});
}

}  // namespace sctm::enoc
