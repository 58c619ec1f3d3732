// Input-queued virtual-channel wormhole router.
//
// Three-stage pipeline, enforced by intra-tick phase ordering (SA/ST first,
// then VA, then RC): a head flit that arrives in cycle t computes its route
// in t, wins an output VC no earlier than t+1 and traverses the switch no
// earlier than t+2 — a 3-cycle router, plus link latency per hop. Body flits
// stream at one per cycle per port through switch allocation only.
//
// Flow control is credit-based: one credit == one flit slot in the
// downstream input VC. Separable switch allocation (input-first then
// output arbitration) with per-port round-robin or matrix arbiters.
//
// The tick is a fused single pass over *occupied* VCs: an occupancy bitmap
// (bit per (port, vc), maintained on every buffer push/pop) is scanned once
// in ascending index order — the lexicographic (port, vc) order of the
// allocators' request vectors — classifying each occupied VC as an SA
// request (routed + allocated, with a lazy downstream-credit check), a VA
// candidate (routed, unallocated) or an RC candidate (unrouted). Cost per
// tick is O(occupied VCs), not O(ports * vcs).
//
// Allocation works on request bitmasks (see arbiter.hpp). SA stage 1 grants
// each input port's VC mask as the scan leaves that port, and files the
// nominee's input port under its output port; stage 2 grants each output
// port's input-port mask. VA files every candidate that has a free VC in its
// allowed range under its output port, then grants each output port's
// (port, vc) mask. Output-port masks are visited in ascending port order
// through a mask of the ports that have requests, so no phase rescans
// ports x candidates. VA and RC see live post-SA state (busy bits freed by a
// departing tail, credits consumed by this cycle's sends). The allowed VC
// range of every (message class, dateline subclass) pair is precomputed.
//
// Side effects leave through a RouterOutbox instead of mutating the network
// directly: forwarded flits, ejections and upstream credits are recorded in
// emission order and the owning network drains them after the cycle's scan,
// in ascending router-id order (the tick itself touches only router-local
// state).
//
// The datapath is allocation-free in steady state: every input VC's flits
// live in one per-router slab laid out [port][vc][depth], each VC a
// fixed-capacity ring with 16-bit cursors; injection staging is a
// capacity-retaining Ring; request masks, nominees and gather lists live in
// member vectors sized at construction; route computation uses the fixed
// RoutePorts set. Ticking an idle router (has_work() == false) is a no-op —
// the owning network exploits this with an activity scoreboard and only
// ticks routers that hold flits.
//
// Deadlock discipline:
//  * protocol: message classes are split across virtual networks,
//  * routing: XY/YX/odd-even are turn-restricted on meshes; torus DOR and
//    ring shortest use dateline VC subclasses — a packet moves to subclass 1
//    when it traverses a wrap link and resets on a dimension change.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "enoc/arbiter.hpp"
#include "enoc/flit.hpp"
#include "enoc/params.hpp"
#include "noc/message.hpp"
#include "noc/route_table.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "sim/component.hpp"

namespace sctm::enoc {

/// Deferred router side effects for one cycle, recorded in emission order.
/// Routers append in ascending-id order, so the drain applies them router by
/// router, each in its own emission order. Forward and eject entries take
/// their flit from `flits`, in entry order; credit entries carry none. Both
/// vectors retain capacity across cycles.
struct RouterOutbox {
  struct Entry {
    enum class Kind : std::uint8_t { kForward, kEject, kCredit };
    Kind kind = Kind::kForward;
    std::int16_t vc = -1;        // kCredit: the freed VC
    int port = 0;                // kForward: out_dir; kCredit: input port
    NodeId node = kInvalidNode;  // emitting router
  };

  std::vector<Entry> entries;
  std::vector<Flit> flits;  // kForward / kEject payloads

  void forward(NodeId node, int out_dir, const Flit& f) {
    entries.push_back({Entry::Kind::kForward, -1, out_dir, node});
    flits.push_back(f);
  }
  void eject(NodeId node, const Flit& f) {
    entries.push_back({Entry::Kind::kEject, -1, 0, node});
    flits.push_back(f);
  }
  void credit(NodeId node, int in_dir, int vc) {
    entries.push_back(
        {Entry::Kind::kCredit, static_cast<std::int16_t>(vc), in_dir, node});
  }
  void clear() {
    entries.clear();
    flits.clear();
  }
};

/// Growable FIFO ring. Capacity is retained across drain/fill cycles, so a
/// warmed-up queue never touches the heap again — unlike std::deque, which
/// releases its blocks whenever it empties.
template <class T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }
  void push_back(const T& v) {
    if (count_ == buf_.size()) regrow(buf_.empty() ? 8 : buf_.size() * 2);
    std::size_t tail = head_ + count_;
    if (tail >= buf_.size()) tail -= buf_.size();
    buf_[tail] = v;
    ++count_;
  }
  void pop_front() {
    assert(count_ > 0);
    if (++head_ == buf_.size()) head_ = 0;
    --count_;
  }

 private:
  void regrow(std::size_t cap) {
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = buf_[(head_ + i) % buf_.size()];
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Micro-operation counts the energy model charges (enoc/power.hpp): a
/// router's own counters, or their sum over a network.
struct RouterOps {
  std::uint64_t buffer_writes = 0;
  std::uint64_t buffer_reads = 0;
  std::uint64_t xbar_traversals = 0;
  std::uint64_t link_traversals = 0;
  std::uint64_t sa_grants = 0;
  std::uint64_t va_grants = 0;
};

class Router : public Component {
 public:
  /// `routes` is the network-owned routing table (stable address). Route
  /// computation goes through it, which is a transparent dispatch to the
  /// stateless functions for the coordinate algorithms and a table lookup
  /// for kTable. The datapath — VC count, buffer depth, arbiter kind — is
  /// sized once here from `params`.
  Router(Simulator& sim, std::string name, NodeId id,
         const noc::Topology& topo, const noc::RoutingTable& routes,
         const EnocParams& params);

  /// One clock cycle of the pipeline. Side effects (forwards, ejections,
  /// credits) are appended to `out` in emission order; nothing outside this
  /// router is touched. Returns true when the router still holds any flit
  /// afterwards (activity hint; false means every further tick is a no-op
  /// until new work arrives).
  bool tick(RouterOutbox& out);

  /// Flit arrives on input port `in_port` in VC flit.vc (link delivery or,
  /// for the local port, injection placement by inject_*).
  void receive_flit(int in_port, const Flit& flit);

  /// Credit arrives for output (out_port, vc).
  void receive_credit(int out_port, int vc);

  /// Stages a packet's flits for injection (unbounded source queue; the
  /// router moves them into local-port VCs as space frees). Flits are
  /// synthesized straight into the staging ring — no intermediate container.
  void inject(const noc::Message& msg, std::uint32_t nflits);

  NodeId id() const { return id_; }
  bool has_work() const;

  /// Free credits on output port `port` across all VCs (adaptive metric).
  int free_credits(int port) const;

  /// Adds this router's micro-operation counters to `sum`.
  void add_ops_to(RouterOps& sum) const {
    sum.buffer_writes += stat_buffer_writes_;
    sum.buffer_reads += stat_buffer_reads_;
    sum.xbar_traversals += stat_xbar_;
    sum.link_traversals += stat_link_;
    sum.sa_grants += stat_sa_grants_;
    sum.va_grants += stat_va_grants_;
  }

 private:
  struct InputVc {
    std::uint16_t head = 0;   // ring cursor of the front flit in the slab
    std::uint16_t count = 0;  // flits buffered (<= params.buffer_depth)
    std::uint8_t next_dateline = 0;  // subclass the packet occupies downstream
    int out_port = -1;       // RC result; -1 = unrouted
    int out_vc = -1;         // VA result; -1 = unallocated
  };
  /// Allowed output VCs [lo, hi) of a (message class, dateline) pair.
  struct VcRange {
    int lo = 0;
    int hi = 0;
  };

  int vc_index(int port, int vc) const { return port * vcount_ + vc; }
  InputVc& in_vc(int port, int vc) { return inputs_[vc_index(port, vc)]; }

  /// Slab slot of the flit `k` places behind the front of VC `idx`.
  Flit& slot(int idx, int k) {
    int pos = inputs_[static_cast<std::size_t>(idx)].head + k;
    if (pos >= params_.buffer_depth) pos -= params_.buffer_depth;
    return slab_[static_cast<std::size_t>(idx) * params_.buffer_depth +
                 static_cast<std::size_t>(pos)];
  }
  Flit& front_flit(int idx) { return slot(idx, 0); }

  static void set_bit(std::uint64_t* words, int i) {
    words[static_cast<std::size_t>(i) >> 6] |= std::uint64_t{1} << (i & 63);
  }
  static void clear_bit(std::uint64_t* words, int i) {
    words[static_cast<std::size_t>(i) >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Allowed VC range for a packet of class `cls` whose dateline subclass
  /// will be `dateline` at the downstream buffer.
  VcRange allowed_vcs(noc::MsgClass cls, std::uint8_t dateline) const {
    return vc_ranges_[static_cast<std::size_t>(cls) * 2 + (dateline ? 1 : 0)];
  }
  /// Lowest non-busy VC of output `port` in `r`, or -1.
  int first_free_vc(int port, VcRange r) const;

  /// The fused gather-plus-SA pass: one scan over occupied VCs builds each
  /// input port's SA request mask (granting it as the scan leaves the port)
  /// and collects VA/RC candidates, then runs SA output arbitration and the
  /// winning switch traversals.
  void phase_fused_gather_sa();
  void phase_vc_allocation();    // over va_list_, live post-SA busy state
  void phase_route_compute();    // over rc_list_ + VCs re-exposed by SA tails
  void phase_injection();
  void route_one(int idx);

  void send_flit(int in_port, int in_vc_idx);

  NodeId id_;
  noc::Topology topo_;  // cheap copy: the graph tables are shared
  const noc::RoutingTable* routes_;
  EnocParams params_;

  int ports_;    // radix + 1 (local last)
  int local_;    // local port index (== topo.local_port())
  int vcount_ = 0;  // VCs per port
  bool needs_dateline_;

  // Mask widths in words: VCs of one port, ports, and (port, vc) pairs.
  std::size_t vc_words_ = 0;
  std::size_t port_words_ = 0;
  std::size_t pv_words_ = 0;

  std::vector<InputVc> inputs_;  // [port][vc]
  std::vector<Flit> slab_;       // [port][vc][depth]: every input VC's ring
  std::vector<int> credits_;     // [port][vc]: output VC credits
  std::vector<std::uint64_t> busy_;  // [port] x vc_words_: output VC held
                                     // by a packet until its tail is sent
  /// Indexed by MsgClass * 2 + dateline.
  VcRange vc_ranges_[noc::kMsgClassCount * 2];

  /// Occupancy bitmap over vc_index: bit set iff that input VC holds flits.
  /// The tick scans set bits instead of all (port, vc) pairs.
  std::vector<std::uint64_t> occ_;

  // Switch-allocation arbiters: one per input port (VC selection) and one
  // per output port (input selection).
  std::vector<Arbiter> sa_input_arb_;
  std::vector<Arbiter> sa_output_arb_;
  // VC-allocation arbiters: one per output port, over (port, vc) pairs.
  std::vector<Arbiter> va_arb_;

  // Request masks, zero between uses (each grant clears what it read).
  std::vector<std::uint64_t> sa_vc_req_;   // one input port's VCs
  std::vector<std::uint64_t> sa_out_req_;  // [out port] x port_words_
  std::vector<std::uint64_t> va_req_;      // [out port] x pv_words_
  std::vector<std::uint64_t> sa_out_any_;  // out ports with SA requests
  std::vector<std::uint64_t> va_out_any_;  // out ports with VA requests
  std::vector<int> sa_nominee_;  // per input port: VC nominated by stage 1

  // Gather lists filled by the fused scan (ascending vc_index order) and a
  // list of VCs whose tail left in SA this cycle, re-exposing the next
  // packet's head to RC — the one candidate set SA can grow.
  std::vector<int> va_list_;
  std::vector<int> rc_list_;
  std::vector<int> sa_reexposed_;

  /// Outbox of the in-progress tick (valid only inside tick()).
  RouterOutbox* out_ = nullptr;

  // Injection source queue + which local VC each in-progress packet streams
  // into (msg -> vc), to keep wormhole continuity at the local port.
  Ring<Flit> inj_queue_;
  int inj_active_vc_ = -1;     // local VC of the packet currently streaming
  MsgId inj_active_msg_ = kInvalidMsg;

  // Hot-path stat counters, cached once (StatRegistry nodes are stable).
  std::uint64_t& stat_buffer_writes_;
  std::uint64_t& stat_buffer_reads_;
  std::uint64_t& stat_xbar_;
  std::uint64_t& stat_link_;
  std::uint64_t& stat_sa_grants_;
  std::uint64_t& stat_va_grants_;
  std::uint64_t& stat_rc_;
};

}  // namespace sctm::enoc
