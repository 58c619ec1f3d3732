#include "enoc/enoc_network.hpp"

#include <bit>
#include <stdexcept>

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
        sim, this->name() + ".r" + std::to_string(n), n, topo_, routes_,
        params_));
  }
  active_bits_.assign((static_cast<std::size_t>(topo_.node_count()) + 63) / 64,
                      0);
  pending_.reserve(64);
}

void EnocNetwork::install_fault_model(const fault::FaultSpec& spec) {
  Network::install_fault_model(spec);
  link_stuck_until_.assign(routers_.size() * link_stride_, 0);
}

void EnocNetwork::reset() {
  Network::reset();
  for (auto& r : routers_) r->reset();
  pending_.clear();
  for (auto& w : active_bits_) w = 0;
  for (auto& c : link_stuck_until_) c = 0;
  outbox_.clear();
  link_wire_.clear();
  credit_wire_.clear();
  in_flight_ = 0;
  // The tick event (if any) died with the simulator's queue reset; the next
  // inject re-arms the clock.
  ticking_ = false;
  active_cycles_ = 0;
  router_ticks_ = 0;
  activity_hash_ = 0;
}

void EnocNetwork::mark_active(NodeId n) {
  active_bits_[static_cast<std::size_t>(n) >> 6] |=
      std::uint64_t{1} << (static_cast<std::size_t>(n) & 63);
}

void EnocNetwork::inject(noc::Message msg) {
  note_injected(msg);
  const std::uint32_t nflits = params_.flits_for(msg.size_bytes);
  pending_.insert(msg.id, PendingMsg{msg, nflits});
  routers_[static_cast<std::size_t>(msg.src)]->inject(msg, nflits);
  mark_active(msg.src);
  ++in_flight_;
  ensure_ticking();
}

namespace {
// FNV-1a style mixing for the activity hash.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}
}  // namespace

void EnocNetwork::apply_forward(NodeId node, int out_dir, const Flit& flit) {
  activity_hash_ = mix(activity_hash_,
                       (static_cast<std::uint64_t>(sim().now()) << 24) ^
                           (flit.msg << 8) ^
                           (static_cast<std::uint64_t>(flit.seq) << 4) ^
                           static_cast<std::uint64_t>(node * 8 + out_dir));
  if (fault_model() != nullptr) apply_link_faults(node, out_dir, flit);
  const NodeId next = topo_.neighbor(node, out_dir);
  if (next == kInvalidNode) {
    throw std::logic_error(name() + ": flit forwarded off the fabric edge");
  }
  link_wire_.push_back({sim().now() + params_.link_latency, next,
                        topo_.arrival_port(node, out_dir), flit});
  sim().schedule_in(params_.link_latency, [this] { arrive_flit(); });
}

void EnocNetwork::arrive_flit() {
  if (link_wire_.empty() || link_wire_.front().due != sim().now()) {
    throw std::logic_error(name() + ": link FIFO out of order");
  }
  const WireFlit& w = link_wire_.front();
  routers_[static_cast<std::size_t>(w.node)]->receive_flit(w.port, w.flit);
  mark_active(w.node);
  link_wire_.pop_front();
}

void EnocNetwork::apply_eject(NodeId node, const Flit& flit) {
  activity_hash_ = mix(activity_hash_,
                       (static_cast<std::uint64_t>(sim().now()) << 24) ^
                           (flit.msg << 8) ^
                           (static_cast<std::uint64_t>(flit.seq) << 4) ^
                           static_cast<std::uint64_t>(node * 8 + 7));
  PendingMsg* pm = pending_.find(flit.msg);
  if (pm == nullptr) {
    throw std::logic_error(name() + ": ejected flit of unknown message");
  }
  if (pm->msg.dst != node) {
    throw std::logic_error(name() + ": flit ejected at wrong node");
  }
  if (--pm->flits_remaining == 0) {
    const noc::Message msg = pm->msg;
    const bool bad = pm->fault_bad;
    pending_.erase(flit.msg);
    fault::FaultModel* fm = fault_model();
    if (fm != nullptr && bad) {
      handle_corrupt_message(msg);
      return;
    }
    --in_flight_;
    if (fm != nullptr) fm->on_clean_delivery(msg.id, sim().now());
    deliver(msg);
  }
}

// Runs once per link traversal, at the outbox drain — the draw order is the
// drain order. Faults never touch flow control: a corrupted/dropped symbol
// still occupies the downstream datapath (the link-level coding flags it), so
// wormhole and credit state are exactly the fault-free schedule until the
// recovery retransmission perturbs it.
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
// allows another attempt. While the NACK is in flight the message stays
// counted in in_flight_, so the clock keeps running and idle() stays false —
// the lossless contract (and replay's drain) never observes a gap.
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
  --in_flight_;
  deliver(msg);
}

// Source re-injection of a corrupted message. Same flit count, same message
// id, and crucially the original inject_time: end-to-end latency includes
// every failed attempt plus the NACK turnarounds.
void EnocNetwork::reinject_for_retry(const noc::Message& msg) {
  const std::uint32_t nflits = params_.flits_for(msg.size_bytes);
  pending_.insert(msg.id, PendingMsg{msg, nflits, false});
  routers_[static_cast<std::size_t>(msg.src)]->inject(msg, nflits);
  mark_active(msg.src);
  ensure_ticking();
}

void EnocNetwork::apply_credit(NodeId node, int in_dir, int vc) {
  // The credit goes to the upstream router that feeds our input port
  // `in_dir`: that is our neighbor through `in_dir` itself, and the flit left
  // it through the opposite port.
  const NodeId up = topo_.neighbor(node, in_dir);
  if (up == kInvalidNode) {
    throw std::logic_error(name() + ": credit to nonexistent neighbor");
  }
  credit_wire_.push_back({sim().now() + params_.credit_latency, up,
                          topo_.arrival_port(node, in_dir), vc});
  sim().schedule_in(params_.credit_latency, [this] { arrive_credit(); });
}

// A credit can unblock a router, but never *activate* one: a credit-starved
// router still holds the blocked flits, so has_work() keeps it in the active
// set until they drain.
void EnocNetwork::arrive_credit() {
  if (credit_wire_.empty() || credit_wire_.front().due != sim().now()) {
    throw std::logic_error(name() + ": credit FIFO out of order");
  }
  const WireCredit& w = credit_wire_.front();
  routers_[static_cast<std::size_t>(w.node)]->receive_credit(w.port, w.vc);
  credit_wire_.pop_front();
}

void EnocNetwork::ensure_ticking() {
  if (ticking_) return;
  ticking_ = true;
  sim().schedule_in(1, [this] { tick(); });
}

void EnocNetwork::tick() {
  ++active_cycles_;
  if (exhaustive_tick_) {
    // Seed policy (kept as a test oracle): tick every router every cycle,
    // through the same outbox and drain as the scoreboard path.
    for (auto& w : active_bits_) w = 0;
    for (auto& r : routers_) {
      if (r->tick(outbox_)) mark_active(r->id());
      ++router_ticks_;
    }
  } else {
    // Ascending router-id walk over the scoreboard. A router that reports no
    // work is cleared here, before the drain, so a drain-time activation of
    // the same router survives.
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
      if (!routers_[idx]->tick(outbox_)) {
        active_bits_[w] &= ~(std::uint64_t{1} << (idx & 63));
      }
      ++router_ticks_;
      ++idx;
    }
  }
  drain_outbox();
  if (in_flight_ > 0) {
    sim().schedule_in(1, [this] { tick(); });
  } else {
    ticking_ = false;
  }
}

void EnocNetwork::drain_outbox() {
  const Flit* flit = outbox_.flits.data();
  for (const auto& e : outbox_.entries) {
    switch (e.kind) {
      case RouterOutbox::Entry::Kind::kForward:
        apply_forward(e.node, e.port, *flit++);
        break;
      case RouterOutbox::Entry::Kind::kEject:
        apply_eject(e.node, *flit++);
        break;
      case RouterOutbox::Entry::Kind::kCredit:
        apply_credit(e.node, e.port, e.vc);
        break;
    }
  }
  outbox_.clear();
}

}  // namespace sctm::enoc
