#include "enoc/enoc_network.hpp"

#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/simulator.hpp"

namespace sctm::enoc {

EnocNetwork::EnocNetwork(Simulator& sim, std::string name,
                         const noc::Topology& topo, const EnocParams& params)
    : Network(sim, std::move(name), topo.node_count()),
      topo_(topo),
      params_(params),
      routes_(topo, params.routing),
      link_stride_(static_cast<std::size_t>(topo.radix())) {
  if (!noc::compatible(topo_, routes_.algo())) {
    throw std::invalid_argument(this->name() +
                                ": routing algorithm incompatible with " +
                                topo_.describe());
  }
  routers_.reserve(static_cast<std::size_t>(topo_.node_count()));
  for (NodeId n = 0; n < topo_.node_count(); ++n) {
    routers_.push_back(std::make_unique<Router>(
        sim, this->name() + ".r" + std::to_string(n), n, *this));
  }
  active_bits_.assign((static_cast<std::size_t>(topo_.node_count()) + 63) / 64,
                      0);
  pending_.reserve(64);
}

void EnocNetwork::install_fault_model(const fault::FaultSpec& spec) {
  Network::install_fault_model(spec);
  link_stuck_until_.assign(routers_.size() * link_stride_, 0);
}

void EnocNetwork::fail(const char* what) const {
  throw std::logic_error(name() + ": " + what);
}

std::uint32_t EnocNetwork::flit_count(const noc::Message& msg) const {
  const std::uint64_t nflits = params_.flits_for(msg.size_bytes);
  if (nflits > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        name() + ": message " + std::to_string(msg.id) + " of " +
        std::to_string(msg.size_bytes) + " bytes needs " +
        std::to_string(nflits) + " flits, more than a 32-bit flit count holds");
  }
  return static_cast<std::uint32_t>(nflits);
}

void EnocNetwork::inject(noc::Message msg) {
  const std::uint32_t nflits = flit_count(msg);
  note_injected(msg);
  pending_.insert(msg.id, PendingMsg{msg});
  routers_[static_cast<std::size_t>(msg.src)]->inject(msg, nflits);
  mark_active(msg.src);
  ensure_ticking();
}

// The last flit of the message has ejected. The entry is erased before the
// delivery: a delivery may inject, which may grow `pending_`.
void EnocNetwork::finish_message(PendingMsg& pm) {
  const noc::Message msg = pm.msg;
  const bool bad = pm.fault_bad;
  pending_.erase(msg.id);
  fault::FaultModel* fm = fault_model();
  if (fm != nullptr && bad) {
    handle_corrupt_message(msg);
    return;
  }
  if (fm != nullptr) fm->on_clean_delivery(msg.id, sim().now());
  deliver(msg);
}

// Runs once per link traversal, as the router emits the hop — the draw order
// is router-id order, then emission order. Faults never touch flow control:
// a corrupted/dropped symbol still occupies the downstream datapath (the
// link-level coding flags it), so wormhole and credit state are exactly the
// fault-free schedule until the recovery retransmission perturbs it.
void EnocNetwork::apply_link_faults(NodeId node, int out_dir,
                                    const Flit& flit) {
  fault::FaultModel& fm = *fault_model();
  bool bad = false;
  const std::size_t link = static_cast<std::size_t>(node) * link_stride_ +
                           static_cast<std::size_t>(out_dir);
  if (fm.draw_link_stuck_onset()) {
    link_stuck_until_[link] = sim().now() + fm.spec().enoc_link_stuck_cycles;
  }
  if (sim().now() < link_stuck_until_[link]) {
    fm.note_stuck_hit();
    bad = true;
  }
  if (fm.draw_flit_corrupt()) bad = true;
  if (fm.draw_flit_drop()) bad = true;
  if (bad) {
    if (PendingMsg* pm = pending_.find(flit.msg)) pm->fault_bad = true;
  }
}

// Tail reassembly found a bad flit: ask the model whether the retry budget
// allows another attempt. While the NACK is in flight the message is still
// undelivered, so the clock keeps running and idle() stays false — the
// lossless contract (and replay's drain) never observes a gap.
void EnocNetwork::handle_corrupt_message(const noc::Message& msg) {
  fault::FaultModel& fm = *fault_model();
  if (fm.on_corrupt_message(msg.id, sim().now()) ==
      fault::FaultModel::Action::kRetransmit) {
    const noc::Message m = msg;
    auto ev = [this, m] { reinject_for_retry(m); };
    static_assert(InlineFn::fits_inline<decltype(ev)>(),
                  "retry closure must stay within the event SBO budget");
    sim().schedule_in(fm.nack_delay(), std::move(ev));
    return;
  }
  // Budget exhausted: surface the (corrupt) message anyway — networks stay
  // lossless — with the loss recorded in <name>.fault.messages_lost.
  deliver(msg);
}

// Source re-injection of a corrupted message. Same flit count, same message
// id, and crucially the original inject_time: end-to-end latency includes
// every failed attempt plus the NACK turnarounds.
void EnocNetwork::reinject_for_retry(const noc::Message& msg) {
  const std::uint32_t nflits = flit_count(msg);
  pending_.insert(msg.id, PendingMsg{msg});
  routers_[static_cast<std::size_t>(msg.src)]->inject(msg, nflits);
  mark_active(msg.src);
  ensure_ticking();
}

// Link entries land exactly on their due cycle; credits land at the first
// tick at or after theirs (see "Wire FIFOs" in the header). A credit can
// unblock a router, but never *activate* one: a credit-starved router still
// holds the blocked flits, so has_work() keeps it in the active set until
// they drain.
void EnocNetwork::land_wires() {
  const Cycle now = sim().now();
  while (!link_wire_.empty() && link_wire_.front().due <= now) {
    const WireFlit& w = link_wire_.front();
    if (w.due != now) fail("link FIFO out of order");
    routers_[static_cast<std::size_t>(w.node)]->receive_flit(w.port, w.flit);
    mark_active(w.node);
    link_wire_.pop_front();
  }
  while (!credit_wire_.empty() && credit_wire_.front().due <= now) {
    const WireCredit& w = credit_wire_.front();
    routers_[static_cast<std::size_t>(w.node)]->receive_credit(w.port, w.vc);
    credit_wire_.pop_front();
  }
}

void EnocNetwork::ensure_ticking() {
  if (ticking_) return;
  ticking_ = true;
  schedule_tick();
}

void EnocNetwork::schedule_tick() {
  sim().schedule_in(1, [this] { tick(); });
}

void EnocNetwork::tick() {
  ++active_cycles_;
  land_wires();
  if (exhaustive_tick_) {
    // Seed policy (kept as a test oracle): tick every router every cycle.
    for (auto& w : active_bits_) w = 0;
    for (auto& r : routers_) {
      if (r->tick()) mark_active(r->id());
      ++router_ticks_;
    }
  } else {
    // Ascending router-id walk over the scoreboard. A router that reports no
    // work is cleared right after its own tick, so a later activation of it
    // in this cycle (a delivery inside a later router's tick injecting
    // here) survives.
    const std::size_t n = routers_.size();
    for (std::size_t idx = 0; idx < n;) {
      const std::size_t w = idx >> 6;
      const std::uint64_t bits = active_bits_[w] >> (idx & 63);
      if (bits == 0) {
        idx = (w + 1) << 6;  // next word
        continue;
      }
      idx += static_cast<std::size_t>(std::countr_zero(bits));
      if (idx >= n) break;
      if (!routers_[idx]->tick()) {
        active_bits_[w] &= ~(std::uint64_t{1} << (idx & 63));
      }
      ++router_ticks_;
      ++idx;
    }
  }
  if (!idle()) {
    schedule_tick();
  } else {
    ticking_ = false;
  }
}

}  // namespace sctm::enoc
