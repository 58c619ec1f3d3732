#include "enoc/router.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "enoc/enoc_network.hpp"

namespace sctm::enoc {
namespace {

constexpr int kInfiniteCredits = std::numeric_limits<int>::max() / 2;

}  // namespace

Router::Router(Simulator& sim, std::string name, NodeId id, EnocNetwork& net)
    : Component(sim, std::move(name)),
      id_(id),
      net_(&net),
      routes_(&net.routes()),
      params_(net.params()),
      ports_(net.topology().radix(id) + 1),
      local_(net.topology().radix(id)),
      needs_dateline_(net.topology().has_wrap_links()),
      stat_buffer_writes_(counter("buffer_writes")),
      stat_buffer_reads_(counter("buffer_reads")),
      stat_xbar_(counter("xbar_traversals")),
      stat_link_(counter("link_traversals")),
      stat_sa_grants_(counter("sa_grants")),
      stat_va_grants_(counter("va_grants")),
      stat_rc_(counter("rc_count")) {
  params_.validate(needs_dateline_);
  vcount_ = params_.total_vcs();
  const auto ports = static_cast<std::size_t>(ports_);
  const auto nvc = ports * static_cast<std::size_t>(vcount_);
  vc_words_ = Arbiter::words_for(vcount_);
  port_words_ = Arbiter::words_for(ports_);
  pv_words_ = Arbiter::words_for(ports_ * vcount_);

  inputs_.assign(nvc, InputVc{});
  for (std::size_t i = 0; i < nvc; ++i) {
    inputs_[i].port =
        static_cast<std::uint16_t>(i / static_cast<std::size_t>(vcount_));
  }
  slab_.assign(nvc * static_cast<std::size_t>(params_.buffer_depth), Flit{});
  credits_.assign(nvc, params_.buffer_depth);
  std::fill_n(credits_.begin() + vc_index(local_, 0), vcount_,
              kInfiniteCredits);
  busy_.assign(ports * vc_words_, 0);
  occ_.assign((nvc + 63) / 64, 0);

  // Message classes split across vnets (requests/control on vnet 0,
  // replies/data on vnet 1); dateline subclasses split a vnet's VCs in half.
  for (int c = 0; c < noc::kMsgClassCount; ++c) {
    const auto cls = static_cast<noc::MsgClass>(c);
    const bool reply_vnet =
        params_.vnets >= 2 &&
        (cls == noc::MsgClass::kReply || cls == noc::MsgClass::kData);
    const int base = (reply_vnet ? 1 : 0) * params_.vcs_per_vnet;
    for (int d = 0; d < 2; ++d) {
      VcRange& r = vc_ranges_[c * 2 + d];
      if (!needs_dateline_) {
        r = {base, base + params_.vcs_per_vnet};
      } else {
        const int half = params_.vcs_per_vnet / 2;
        r = {base + d * half, base + d * half + half};
      }
    }
  }

  sa_input_arb_.assign(ports, Arbiter(params_.arbiter, vcount_));
  sa_output_arb_.assign(ports, Arbiter(params_.arbiter, ports_));
  va_arb_.assign(ports, Arbiter(params_.arbiter, ports_ * vcount_));
  sa_vc_req_.assign(vc_words_, 0);
  sa_out_req_.assign(ports * port_words_, 0);
  va_req_.assign(ports * pv_words_, 0);
  sa_out_any_.assign(port_words_, 0);
  va_out_any_.assign(port_words_, 0);
  sa_nominee_.assign(ports, -1);
  va_list_.reserve(nvc);
  rc_list_.reserve(nvc);
  sa_reexposed_.reserve(ports);
}

int Router::first_free_vc(int port, VcRange r) const {
  const std::uint64_t* busy =
      &busy_[static_cast<std::size_t>(port) * vc_words_];
  for (int v = r.lo; v < r.hi;) {
    const int w = v >> 6;
    const int end = std::min(r.hi, (w + 1) << 6);
    std::uint64_t free = ~busy[w] >> (v & 63);
    if (end - v < 64) free &= (std::uint64_t{1} << (end - v)) - 1;
    if (free != 0) return v + std::countr_zero(free);
    v = end;
  }
  return -1;
}

void Router::fail(const char* what) const {
  throw std::logic_error(name() + ": " + what);
}

void Router::inject(const noc::Message& msg, std::uint32_t nflits) {
  Flit f;
  f.msg = msg.id;
  f.src = msg.src;
  f.dst = msg.dst;
  f.cls = msg.cls;
  for (std::uint32_t i = 0; i < nflits; ++i) {
    f.seq = i;
    f.is_head = (i == 0);
    f.is_tail = (i == nflits - 1);
    inj_queue_.push_back({f, msg.inject_time});
  }
}

bool Router::has_work() const {
  if (!inj_queue_.empty()) return true;
  for (const std::uint64_t w : occ_) {
    if (w != 0) return true;
  }
  return false;
}

int Router::free_credits(int port) const {
  if (port == local_) return kInfiniteCredits;
  int total = 0;
  for (int v = 0; v < vcount_; ++v) {
    total += credits_[static_cast<std::size_t>(vc_index(port, v))];
  }
  return total;
}

bool Router::tick() {
  phase_fused_gather_sa();
  phase_vc_allocation();
  phase_route_compute();
  phase_injection();
  return has_work();
}

void Router::phase_fused_gather_sa() {
  // Single pass over occupied VCs in ascending vc_index order. Each occupied
  // VC is classified once: routed + allocated VCs with a downstream credit
  // become SA stage-1 requests, routed-unallocated VCs queue for VA, unrouted
  // VCs queue for RC. SA reads pre-SA state by construction (this scan
  // precedes every state change of the cycle).
  va_list_.clear();
  rc_list_.clear();
  sa_reexposed_.clear();

  // Stage 1, as the scan leaves each input port with requests: its arbiter
  // nominates one VC, filed under the nominee's output port.
  int cur_port = -1;  // input port whose requests are being collected
  auto close_port = [&] {
    if (cur_port < 0) return;
    const auto port = static_cast<std::size_t>(cur_port);
    const int nom = sa_input_arb_[port].grant(sa_vc_req_.data());
    clear_words(sa_vc_req_.data(), vc_words_);
    sa_nominee_[port] = nom;
    const int q = inputs_[static_cast<std::size_t>(vc_index(cur_port, nom))]
                      .out_port;
    set_bit(&sa_out_req_[static_cast<std::size_t>(q) * port_words_], cur_port);
    set_bit(sa_out_any_.data(), q);
  };
  int p = 0;  // input port of idx, advanced as idx ascends
  int port_base = 0;  // vc_index(p, 0)
  for (std::size_t w = 0; w < occ_.size(); ++w) {
    for (std::uint64_t bits = occ_[w]; bits != 0; bits &= bits - 1) {
      const int idx = static_cast<int>(w << 6) + std::countr_zero(bits);
      const auto& ivc = inputs_[static_cast<std::size_t>(idx)];
      if (ivc.out_vc >= 0) {
        // Lazy credit check: only occupied, allocated VCs read counters.
        if (credits_[static_cast<std::size_t>(
                vc_index(ivc.out_port, ivc.out_vc))] > 0) {
          while (idx >= port_base + vcount_) {
            ++p;
            port_base += vcount_;
          }
          if (p != cur_port) {
            close_port();
            cur_port = p;
          }
          set_bit(sa_vc_req_.data(), idx - port_base);
        }
      } else if (ivc.out_port >= 0) {
        va_list_.push_back(idx);
      } else {
        rc_list_.push_back(idx);
      }
    }
  }
  close_port();

  // Stage 2 in ascending output-port order: each output port grants one of
  // the input ports filed under it, and the winner traverses the switch.
  // A traversal changes no request mask and no other port's arbiter, so
  // granting and sending port by port equals granting all, then sending.
  for (std::size_t w = 0; w < port_words_; ++w) {
    std::uint64_t bits = sa_out_any_[w];
    sa_out_any_[w] = 0;
    for (; bits != 0; bits &= bits - 1) {
      const int q = static_cast<int>(w << 6) + std::countr_zero(bits);
      std::uint64_t* req =
          &sa_out_req_[static_cast<std::size_t>(q) * port_words_];
      const int in = sa_output_arb_[static_cast<std::size_t>(q)].grant(req);
      clear_words(req, port_words_);
      send_flit(in, sa_nominee_[static_cast<std::size_t>(in)]);
      ++stat_sa_grants_;
    }
  }
}

void Router::send_flit(int in_port, int in_vc_idx) {
  const int idx = vc_index(in_port, in_vc_idx);
  auto& ivc = inputs_[static_cast<std::size_t>(idx)];
  Flit& f = front_flit(idx);
  f.vc = static_cast<std::int16_t>(ivc.out_vc);
  f.dateline = ivc.next_dateline;
  const bool tail = f.is_tail;

  const int out = ivc.out_port;
  if (out != local_) {
    --credits_[static_cast<std::size_t>(vc_index(out, ivc.out_vc))];
    ++stat_link_;
    net_->forward(id_, out, f);
  } else {
    // May deliver the message, and the delivery may inject at any router,
    // this one included: an inject touches only the staging ring.
    net_->eject(id_, f);
  }
  ivc.head = static_cast<std::uint16_t>(
      ivc.head + 1 == params_.buffer_depth ? 0 : ivc.head + 1);
  if (--ivc.count == 0) clear_bit(occ_.data(), idx);
  ++stat_buffer_reads_;
  ++stat_xbar_;

  if (tail) {
    clear_bit(&busy_[static_cast<std::size_t>(out) * vc_words_], ivc.out_vc);
    ivc.out_port = -1;
    ivc.out_vc = -1;
    // The next packet's head (if buffered behind the tail) becomes an RC
    // candidate this same cycle — the one candidate set SA can grow.
    if (ivc.count != 0) sa_reexposed_.push_back(idx);
  }

  // Return a credit upstream for the slot we just freed (links only; the
  // local injection path reads buffer occupancy directly).
  if (in_port != local_) net_->credit(id_, in_port, in_vc_idx);
}

void Router::phase_vc_allocation() {
  if (va_list_.empty()) return;
  // One pass files each candidate with a free VC in its allowed range under
  // its output port, reading busy bits live — post-SA — so an output VC
  // freed by a departing tail this cycle is grantable. Filing every port's
  // requests before any grant is equivalent to filing port by port: a grant
  // for port q touches only q's busy bits and the winner's out_vc, neither
  // of which any other port's request set reads.
  for (const int idx : va_list_) {
    const auto& ivc = inputs_[static_cast<std::size_t>(idx)];
    const int q = ivc.out_port;
    const VcRange r = allowed_vcs(front_flit(idx).cls, ivc.next_dateline);
    if (first_free_vc(q, r) < 0) continue;
    set_bit(&va_req_[static_cast<std::size_t>(q) * pv_words_], idx);
    set_bit(va_out_any_.data(), q);
  }
  // One grant per output port, ascending; the winner takes the lowest free
  // VC of its range.
  for (std::size_t w = 0; w < port_words_; ++w) {
    std::uint64_t bits = va_out_any_[w];
    va_out_any_[w] = 0;
    for (; bits != 0; bits &= bits - 1) {
      const int q = static_cast<int>(w << 6) + std::countr_zero(bits);
      std::uint64_t* req = &va_req_[static_cast<std::size_t>(q) * pv_words_];
      const int g = va_arb_[static_cast<std::size_t>(q)].grant(req);
      clear_words(req, pv_words_);
      auto& ivc = inputs_[static_cast<std::size_t>(g)];
      const int ov =
          first_free_vc(q, allowed_vcs(front_flit(g).cls, ivc.next_dateline));
      set_bit(&busy_[static_cast<std::size_t>(q) * vc_words_], ov);
      ivc.out_vc = ov;
      ++stat_va_grants_;
    }
  }
}

void Router::phase_route_compute() {
  for (const int idx : rc_list_) route_one(idx);
  // VCs re-exposed by SA tail departures are routed after the gathered list
  // rather than merge-sorted into it: RC is per-VC pure (it reads the head
  // flit and live credit counts, which RC never modifies, and writes only
  // that VC's route fields), so RC order across VCs is unobservable.
  for (const int idx : sa_reexposed_) route_one(idx);
}

void Router::route_one(int idx) {
  auto& ivc = inputs_[static_cast<std::size_t>(idx)];
  if (ivc.count == 0 || ivc.out_port >= 0) return;
  const int p = ivc.port;
  const Flit& head = front_flit(idx);
  if (!head.is_head) fail("body flit at unrouted VC head");
  ++stat_rc_;
  if (head.dst == id_) {
    ivc.out_port = local_;
    ivc.next_dateline = 0;
    return;
  }
  const auto candidates =
      routes_->route(head.src, id_, head.dst, p == local_ ? -1 : p);
  int chosen = candidates.front();
  if (params_.adaptive && candidates.size() > 1) {
    int best = -1;
    for (const int c : candidates) {
      const int fc = free_credits(c);
      if (fc > best) {
        best = fc;
        chosen = c;
      }
    }
  }
  ivc.out_port = chosen;
  const noc::Topology& topo = net_->topology();
  if (topo.wrap_link(id_, chosen)) {
    ivc.next_dateline = 1;
  } else if (p < local_ &&
             topo.port_axis(id_, p) != topo.port_axis(id_, chosen)) {
    ivc.next_dateline = 0;  // dimension change resets the subclass
  } else {
    ivc.next_dateline = head.dateline;
  }
}

void Router::phase_injection() {
  if (inj_queue_.empty()) return;
  // Only pull flits injected strictly before this cycle: the pull instant
  // then depends on the injection *cycle* alone, never on how the inject
  // event was ordered against this tick within the cycle — a requirement
  // for the trace-replay fixed-point property.
  if (inj_queue_.front().injected_at >= now()) return;
  Flit& f = inj_queue_.front().flit;

  if (f.is_head) {
    assert(inj_active_msg_ == kInvalidMsg);
    const VcRange r = allowed_vcs(f.cls, 0);
    for (int v = r.lo; v < r.hi; ++v) {
      const auto& ivc = in_vc(local_, v);
      if (ivc.count == 0 && ivc.out_port < 0) {
        f.vc = static_cast<std::int16_t>(v);
        if (!f.is_tail) {
          inj_active_vc_ = v;
          inj_active_msg_ = f.msg;
        }
        receive_flit(local_, f);
        inj_queue_.pop_front();
        return;  // local port bandwidth: one flit per cycle
      }
    }
    return;  // no free VC; head blocks the injection queue
  }

  assert(inj_active_msg_ == f.msg && inj_active_vc_ >= 0);
  if (in_vc(local_, inj_active_vc_).count >= params_.buffer_depth) return;
  f.vc = static_cast<std::int16_t>(inj_active_vc_);
  if (f.is_tail) {
    inj_active_vc_ = -1;
    inj_active_msg_ = kInvalidMsg;
  }
  receive_flit(local_, f);
  inj_queue_.pop_front();
}

}  // namespace sctm::enoc
