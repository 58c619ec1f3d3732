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
// Side effects go straight to the owning EnocNetwork during the tick:
// forwarded flits and upstream credits onto its wire FIFOs, ejections into
// its reassembly (which may deliver a message, and the delivery may inject
// another). The network ticks routers in ascending id order, so side effects
// happen in router-id order, then emission order. Nothing a router emits can
// reach another router in the same cycle: every link and credit latency is
// >= 1, and a same-cycle inject waits in the staging ring, which the router
// pulls only for flits injected before now.
//
// The tick is flattened: the pipeline phases, the allocators, route
// computation (RoutingTable::route) and the network's wire handlers compile
// into one function. Left out of line are the error paths, the delivery of
// a completed message, the fault model, wire FIFO growth and the clearing
// of request masks wider than one word. Route computation reads its port's
// wrap flag and axes through the topology's inline accessors.
//
// The datapath is allocation-free in steady state: every input VC's flits
// live in one per-router slab laid out [port][vc][depth], each VC a
// fixed-capacity ring with 16-bit cursors; injection staging is a
// capacity-retaining Ring; request masks, nominees and gather lists live in
// member vectors sized at construction; route computation uses the fixed
// RoutePorts set. Ticking an idle router (has_work() == false) is a no-op —
// the owning network exploits this with an activity scoreboard and only
// ticks routers that hold flits (or have a staged injection).
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
  [[gnu::noinline]] void regrow(std::size_t cap) {
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

class EnocNetwork;

class Router : public Component {
 public:
  /// Router `id` of `net`, which outlives it. Route computation goes through
  /// the network's routing table (net.routes()), and every side effect goes
  /// to `net`. The datapath — VC count, buffer depth, arbiter kind — is
  /// sized once here from net.params().
  Router(Simulator& sim, std::string name, NodeId id, EnocNetwork& net);

  /// One clock cycle of the pipeline. Forwards, ejections and credits are
  /// handed to the network as they are emitted. Returns true when the router
  /// still holds any flit or staged injection afterwards (activity hint;
  /// false means every further tick is a no-op until new work arrives).
  [[gnu::flatten]] bool tick();

  /// Flit arrives on input port `in_port` in VC flit.vc (link delivery or,
  /// for the local port, injection placement by phase_injection).
  void receive_flit(int in_port, const Flit& flit) {
    assert(in_port >= 0 && in_port < ports_);
    assert(flit.vc >= 0 && flit.vc < vcount_);
    const int idx = vc_index(in_port, flit.vc);
    auto& ivc = inputs_[static_cast<std::size_t>(idx)];
    if (ivc.count >= params_.buffer_depth) {
      fail("input buffer overflow (credit bug)");
    }
    slot(idx, ivc.count) = flit;
    ++ivc.count;
    set_bit(occ_.data(), idx);
    ++stat_buffer_writes_;
  }

  /// Credit arrives for output (out_port, vc).
  void receive_credit(int out_port, int vc) {
    int& credits = credits_[static_cast<std::size_t>(vc_index(out_port, vc))];
    ++credits;
    if (credits > params_.buffer_depth && out_port != local_) {
      fail("credit overflow");
    }
  }

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
    std::uint16_t port = 0;  // the input port this VC belongs to
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
  /// Zeroes a request mask of `n` >= 1 words. The first word is stored
  /// outright, so a mask of at most 64 requesters (VA on a 5-port router
  /// has 5 x VCs) costs one store and no library call.
  static void clear_words(std::uint64_t* words, std::size_t n) {
    words[0] = 0;
    for (std::size_t w = 1; w < n; ++w) words[w] = 0;
  }

  /// Throws std::logic_error naming this router; kept out of line.
  [[noreturn, gnu::cold, gnu::noinline]] void fail(const char* what) const;

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
  EnocNetwork* net_;
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

  // Injection source queue + which local VC each in-progress packet streams
  // into (msg -> vc), to keep wormhole continuity at the local port.
  struct StagedFlit {
    Flit flit;
    Cycle injected_at = kNoCycle;  // the message's network acceptance time
  };
  Ring<StagedFlit> inj_queue_;
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
