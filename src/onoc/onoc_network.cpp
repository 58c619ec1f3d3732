#include "onoc/onoc_network.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "onoc/power.hpp"

namespace sctm::onoc {

OnocNetwork::OnocNetwork(Simulator& sim, std::string name,
                         const noc::Topology& topo, const OnocParams& params,
                         Arbitration organization,
                         const enoc::EnocParams& electrical, int pool_channels)
    : Network(sim, std::move(name), topo.node_count()),
      topo_(topo),
      params_(params),
      organization_(organization),
      stat_arb_wait_(accumulator("arb_wait")),
      stat_ser_(accumulator("serialization")),
      stat_transmissions_(counter("transmissions")) {
  params_.validate();
  // The optical plane keys channels off node ids alone (single-hop
  // waveguides), so any tile layout with coordinates works: distance and
  // width only scale the time-of-flight.
  if (organization_ == Arbitration::kTokenRing ||
      organization_ == Arbitration::kSwmr) {
    const auto channels = static_cast<std::size_t>(topo_.node_count());
    arb_chan_.resize(channels);
    arb_queued_.assign((channels + 63) / 64, 0);
  }
  if (organization_ == Arbitration::kTokenRing) {
    tokens_.reserve(static_cast<std::size_t>(topo_.node_count()));
    for (int i = 0; i < topo_.node_count(); ++i) {
      tokens_.emplace_back(topo_.node_count(), params_.token_hop_latency);
    }
  } else if (organization_ == Arbitration::kSwmr) {
    src_channel_free_.assign(static_cast<std::size_t>(topo_.node_count()), 0);
  } else if (organization_ == Arbitration::kSharedPool) {
    if (pool_channels < 1) {
      throw std::invalid_argument(this->name() + ": pool_channels must be >= 1");
    }
    pool_free_.assign(static_cast<std::size_t>(pool_channels), 0);
  } else {
    receivers_.resize(static_cast<std::size_t>(topo_.node_count()));
    // The electrical control plane rides the same tile layout and routes
    // like any ENoC: an unset algorithm resolves to the fabric's natural
    // one, and an explicit one the fabric cannot use is an error. It
    // carries only kControl packets, which ride vnet 0, so one vnet serves.
    enoc::EnocParams mesh = electrical;
    mesh.vnets = 1;
    ctrl_ = std::make_unique<enoc::EnocNetwork>(sim, this->name() + ".ctrl",
                                                topo_, mesh);
    auto up = [this](const noc::Message& m) { on_ctrl_deliver(m); };
    static_assert(noc::Network::DeliverFn::fits_inline<decltype(up)>(),
                  "control-plane callback must stay within the SBO budget");
    ctrl_->set_deliver_callback(std::move(up));
  }
}

void OnocNetwork::install_fault_model(const fault::FaultSpec& spec) {
  Network::install_fault_model(spec);
  optical_ber_ = faulted_bit_error_rate(
      budget_inputs_for(params_, node_count()), spec.onoc_ring_drift_sigma_c,
      spec.onoc_laser_degradation_db);
}

Cycle OnocNetwork::zero_load_latency(const noc::Message& msg) const {
  const Cycle ser = params_.ser_cycles(msg.size_bytes);
  if (msg.src == msg.dst) {
    return params_.eo_latency + ser + params_.oe_latency;
  }
  const Cycle tof =
      params_.tof_cycles(topo_.distance(msg.src, msg.dst), topo_.width());
  return params_.eo_latency + ser + tof + params_.oe_latency;
}

void OnocNetwork::inject(noc::Message msg) {
  note_injected(msg);

  if (msg.src == msg.dst) {
    // Local loopback: conversion + serialization only, no arbitration.
    const Cycle lat = zero_load_latency(msg);
    auto ev = [this, msg]() mutable { deliver(msg); };
    static_assert(InlineFn::fits_inline<decltype(ev)>());
    sim().schedule_in(lat, std::move(ev));
    return;
  }

  route_to_arbitration(msg);
}

// Entry into channel arbitration — shared by inject() and the fault model's
// retransmission path, so a NACKed message re-contends exactly like a fresh
// one (new arbitration wait, new path-setup transaction) while keeping its
// identity and original inject_time.
void OnocNetwork::route_to_arbitration(const noc::Message& msg) {
  if (organization_ == Arbitration::kTokenRing) {
    // Per-channel arbitration defers to the cycle's late-band flush; the
    // grant values are what the immediate acquire would have produced (same
    // cycle, same per-channel order).
    queue_arbitration(msg, msg.dst);
    return;
  }

  if (organization_ == Arbitration::kSwmr) {
    // The source's own channel is the only shared resource.
    queue_arbitration(msg, msg.src);
    return;
  }

  if (organization_ == Arbitration::kSharedPool) {
    // FCFS over the earliest-free channel of the pool, plus a token round
    // of global arbitration latency per grant.
    std::size_t best = 0;
    for (std::size_t c = 1; c < pool_free_.size(); ++c) {
      if (pool_free_[c] < pool_free_[best]) best = c;
    }
    const Cycle arb = params_.token_round_cycles(topo_.node_count()) / 2;
    const Cycle earliest = sim().now() + arb;
    const Cycle start =
        pool_free_[best] > earliest ? pool_free_[best] : earliest;
    pool_free_[best] =
        start + params_.ser_cycles(msg.size_bytes) + params_.guard_cycles;
    grant(msg, start, sim().now());
    return;
  }

  // Path setup: request the receiver over the control mesh.
  const std::uint64_t pid = next_pending_id_++;
  pending_.insert(pid, Pending{msg});
  send_ctrl(CtrlKind::kSetup, msg.src, msg.dst, pid);
}

void OnocNetwork::queue_arbitration(const noc::Message& msg, NodeId channel) {
  const auto c = static_cast<std::size_t>(channel);
  arb_chan_[c].push_back(msg);
  arb_queued_[c >> 6] |= std::uint64_t{1} << (c & 63);
  if (!arb_scheduled_) {
    arb_scheduled_ = true;
    auto flush = [this] { arb_flush(); };
    static_assert(InlineFn::fits_inline<decltype(flush)>());
    sim().schedule_late(sim().now(), std::move(flush));
  }
}

// One flush per cycle with queued requests. All of the cycle's deliveries
// (and hence any same-cycle re-injections from the replay engine's late
// flush) either landed before this event or reschedule it — the late band
// keeps draining until empty, so no request waits a cycle. The walk reads
// the live mask, so a request queued during it is visited exactly when a
// walk over every channel would visit it.
void OnocNetwork::arb_flush() {
  arb_scheduled_ = false;
  const Cycle t = sim().now();  // every queued request shares this cycle
  for (std::size_t c = next_queued_channel(0); c < arb_chan_.size();
       c = next_queued_channel(c + 1)) {
    std::vector<noc::Message>& reqs = arb_chan_[c];
    if (organization_ == Arbitration::kTokenRing) {
      TokenRing& ring = tokens_[c];
      fault::FaultModel* fm = fault_model();
      for (const noc::Message& m : reqs) {
        // Token-loss draw from the channel's own child stream.
        if (fm != nullptr && fm->draw_token_loss(static_cast<int>(c))) {
          ring.lose_token(t, fm->spec().onoc_token_regen_cycles);
        }
        const Cycle hold =
            params_.ser_cycles(m.size_bytes) + params_.guard_cycles;
        grant(m, ring.acquire(m.src, t, hold), t);
      }
    } else {
      Cycle& free_at = src_channel_free_[c];
      for (const noc::Message& m : reqs) {
        const Cycle start = free_at > t ? free_at : t;
        free_at =
            start + params_.ser_cycles(m.size_bytes) + params_.guard_cycles;
        grant(m, start, t);
      }
    }
    reqs.clear();
    arb_queued_[c >> 6] &= ~(std::uint64_t{1} << (c & 63));
  }
}

std::size_t OnocNetwork::next_queued_channel(std::size_t from) const {
  std::size_t w = from >> 6;
  if (w >= arb_queued_.size()) return arb_chan_.size();
  std::uint64_t bits = arb_queued_[w] & (~std::uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++w == arb_queued_.size()) return arb_chan_.size();
    bits = arb_queued_[w];
  }
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
}

void OnocNetwork::grant(const noc::Message& msg, Cycle start, Cycle now) {
  stat_arb_wait_.add(static_cast<double>(start - now));
  auto ev = [this, msg]() mutable { start_transmission(msg); };
  static_assert(InlineFn::fits_inline<decltype(ev)>());
  sim().schedule_at(start, std::move(ev));
}

void OnocNetwork::start_transmission(noc::Message msg) {
  const Cycle ser = params_.ser_cycles(msg.size_bytes);
  const Cycle tof =
      params_.tof_cycles(topo_.distance(msg.src, msg.dst), topo_.width());
  const Cycle lat = params_.eo_latency + ser + tof + params_.oe_latency;
  stat_ser_.add(static_cast<double>(ser));
  ++stat_transmissions_;
  data_bytes_ += msg.size_bytes;
  auto ev = [this, msg]() mutable { complete_transmission(msg); };
  static_assert(InlineFn::fits_inline<decltype(ev)>(),
                "optical delivery closure must stay within the SBO budget");
  sim().schedule_in(lat, std::move(ev));
}

// Arrival of the optical payload at the receiver, where the self-correction
// layer checks transfer integrity. The corruption draw happens here, at
// event dispatch (serial by construction), from the whole-transfer error
// probability the cached BER implies: p = 1 - (1-ber)^bits.
void OnocNetwork::complete_transmission(noc::Message msg) {
  fault::FaultModel* fm = fault_model();
  if (fm != nullptr && optical_ber_ > 0.0) {
    const double bits = 8.0 * static_cast<double>(msg.size_bytes);
    const double p = -std::expm1(bits * std::log1p(-optical_ber_));
    if (fm->draw_optical_corrupt(p)) {
      if (fm->on_corrupt_message(msg.id, sim().now()) ==
          fault::FaultModel::Action::kRetransmit) {
        // NACK turnaround, then re-contend from scratch; the message stays
        // undelivered, so idle() (and replay's drain) never observes a gap.
        const noc::Message m = msg;
        auto ev = [this, m] { route_to_arbitration(m); };
        static_assert(InlineFn::fits_inline<decltype(ev)>(),
                      "retry closure must stay within the event SBO budget");
        sim().schedule_in(fm->nack_delay(), std::move(ev));
        return;
      }
      // Budget exhausted: surface the (corrupt) transfer anyway — the
      // fabric stays lossless — counted in <name>.fault.messages_lost.
      deliver(msg);
      return;
    }
    fm->on_clean_delivery(msg.id, sim().now());
  }
  deliver(msg);
}

void OnocNetwork::send_ctrl(CtrlKind kind, NodeId from, NodeId to,
                            std::uint64_t pending_id) {
  noc::Message c;
  c.id = next_ctrl_msg_id_++;
  c.src = from;
  c.dst = to;
  c.size_bytes = params_.ctrl_msg_bytes;
  c.cls = noc::MsgClass::kControl;
  c.tag = (static_cast<std::uint64_t>(kind) << 56) | pending_id;
  ctrl_->inject(c);
}

void OnocNetwork::on_ctrl_deliver(const noc::Message& ctrl) {
  const auto kind = static_cast<CtrlKind>(ctrl.tag >> 56);
  const std::uint64_t pid = ctrl.tag & ((std::uint64_t{1} << 56) - 1);
  Pending* pending = pending_.find(pid);
  if (pending == nullptr) {
    throw std::logic_error(name() + ": control message for unknown pending id");
  }
  noc::Message& msg = pending->msg;

  if (kind == CtrlKind::kSetup) {
    auto& recv = receivers_[static_cast<std::size_t>(msg.dst)];
    if (recv.busy) {
      recv.queue.push_back(pid);
    } else {
      recv.busy = true;
      send_grant(msg.dst, pid);
    }
    return;
  }

  // Grant arrived at the writer: transmit now; the receiver frees when the
  // tail has been detected (end of the optical transfer), plus a guard band.
  stat_arb_wait_.add(static_cast<double>(sim().now() - msg.inject_time));
  const noc::Message data = msg;
  pending_.erase(pid);
  const Cycle ser = params_.ser_cycles(data.size_bytes);
  const Cycle tof =
      params_.tof_cycles(topo_.distance(data.src, data.dst), topo_.width());
  const Cycle busy_for = params_.eo_latency + ser + tof + params_.oe_latency +
                         params_.guard_cycles;
  const NodeId dst = data.dst;
  sim().schedule_in(busy_for, [this, dst] { receiver_freed(dst); });
  start_transmission(data);
}

void OnocNetwork::receiver_freed(NodeId dst) {
  auto& recv = receivers_[static_cast<std::size_t>(dst)];
  if (recv.queue.empty()) {
    recv.busy = false;
    return;
  }
  const std::uint64_t pid = recv.queue.front();
  recv.queue.pop_front();
  send_grant(dst, pid);
}

// Grant emission, with reservation-loss faults: a lost grant is detected by
// the writer's reservation timeout and the receiver re-issues it. After the
// retry budget the grant is forced through (the protocol escalates to a
// reliable path), so the writer always hears back and the receiver — busy
// until its grant is consumed — can never deadlock.
void OnocNetwork::send_grant(NodeId dst, std::uint64_t pid) {
  Pending* pending = pending_.find(pid);
  if (pending == nullptr) {
    throw std::logic_error(name() + ": grant for unknown pending id");
  }
  fault::FaultModel* fm = fault_model();
  if (fm != nullptr && fm->draw_reservation_loss() &&
      pending->resv_retries <
          static_cast<std::uint32_t>(fm->spec().max_retries)) {
    ++pending->resv_retries;
    auto ev = [this, dst, pid] { send_grant(dst, pid); };
    static_assert(InlineFn::fits_inline<decltype(ev)>(),
                  "grant-retry closure must stay within the event SBO budget");
    sim().schedule_in(fm->spec().onoc_reservation_timeout, std::move(ev));
    return;
  }
  send_ctrl(CtrlKind::kGrant, dst, pending->msg.src, pid);
}

}  // namespace sctm::onoc
