#include "analytic/model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "noc/route_table.hpp"
#include "noc/routing.hpp"
#include "onoc/loss.hpp"

namespace sctm::analytic {

namespace {

constexpr int kClasses = noc::kMsgClassCount;

/// ENoC router pipeline depth (RC/VA/SA -> ST), matching enoc::Router.
constexpr double kRouterPipeline = 3.0;
/// Final ejection cycle at the destination's local port.
constexpr double kEjection = 1.0;
/// Saturation clamp: a station's utilization headroom never drops below
/// this, so overloaded candidates get enormous-but-finite (and still
/// monotone) waits instead of division blow-ups.
constexpr double kMinHeadroom = 1e-6;

/// Waiting times saturate at this many spans: past full saturation the
/// exact magnitude is meaningless, only the (stable) ranking matters.
double wait_cap(const TraceProfile& p) {
  return 100.0 * static_cast<double>(p.span());
}

/// Finite-population correction: `m` messages sharing a station over the
/// whole trace contend as (m-1)/m of an open queue — in particular a
/// station used by a single message never waits, which is what replay does.
double finite_pop(double m) { return m <= 1.0 ? 0.0 : (m - 1.0) / m; }

/// Steering mask for the hybrid: one byte per (pair, class), 1 = optical.
/// Pure-kind models pass no mask and see all traffic.
struct PairClassFilter {
  const std::vector<std::uint8_t>* mask = nullptr;
  bool want_optical = false;

  bool accept(const TraceProfile& p, NodeId s, NodeId d, int c) const {
    if (mask == nullptr) return true;
    const std::size_t i = p.pair_index(s, d) * kClasses +
                          static_cast<std::size_t>(c);
    return ((*mask)[i] != 0) == want_optical;
  }
};

/// Weighted accumulation of per-(pair,class) latencies into a LatencyCore.
struct CoreAcc {
  AnalyticModel::LatencyCore out{};

  void add(int c, double msgs, double zero_load, double wait) {
    out.weight += msgs;
    out.mean_latency += msgs * (zero_load + wait);
    out.mean_wait += msgs * wait;
    out.max_zero_load = std::max(out.max_zero_load, zero_load);
    out.class_weight[static_cast<std::size_t>(c)] += msgs;
    out.class_latency[static_cast<std::size_t>(c)] +=
        msgs * (zero_load + wait);
  }

  AnalyticModel::LatencyCore finish(double bottleneck_busy) {
    if (out.weight > 0) {
      out.mean_latency /= out.weight;
      out.mean_wait /= out.weight;
    }
    for (int c = 0; c < kClasses; ++c) {
      const auto i = static_cast<std::size_t>(c);
      if (out.class_weight[i] > 0) out.class_latency[i] /= out.class_weight[i];
    }
    out.bottleneck_busy = bottleneck_busy;
    return out;
  }
};

// ---------------------------------------------------------------------------
// Ideal network: replicates noc::IdealNetwork::model_latency exactly (the
// contention-free agreement anchor — see tests/analytic/test_model.cpp).

AnalyticModel::LatencyCore ideal_core(const TraceProfile& p,
                                      const noc::Topology& topo,
                                      const noc::IdealNetwork::Params& prm) {
  CoreAcc acc;
  NodeId dist_src = kInvalidNode, dist_dst = kInvalidNode;
  int hops = 0;
  for (const auto& f : p.flows) {
    if (f.src != dist_src || f.dst != dist_dst) {
      dist_src = f.src;
      dist_dst = f.dst;
      hops = f.src == f.dst ? 0 : topo.distance(f.src, f.dst);
    }
    const double ser = std::ceil(f.mean_bytes / prm.bytes_per_cycle);
    const double l0 = static_cast<double>(prm.base_latency) +
                      static_cast<double>(prm.per_hop_latency) * hops + ser;
    acc.add(f.cls, f.msgs, l0, 0.0);
  }
  return acc.finish(0.0);  // infinite bandwidth: no throughput bound
}

// ---------------------------------------------------------------------------
// ENoC wormhole mesh: per-link non-preemptive priority M/G/1 (Mandal-style)
// over the deterministic route walk. Priority order is the MsgClass enum
// order (requests ahead of replies ahead of data ahead of control), the
// order the vnet partition drains under round-robin in practice.

AnalyticModel::LatencyCore enoc_core(const TraceProfile& p,
                                     const noc::Topology& topo,
                                     const enoc::EnocParams& prm,
                                     const noc::RoutingTable& routes,
                                     const PairClassFilter& filter) {
  const int radix = topo.radix();
  const auto links =
      static_cast<std::size_t>(p.nodes) * static_cast<std::size_t>(radix);
  const double span = static_cast<double>(p.span());
  // Per link x class: arrivals, Sum(flits), Sum(flits^2 * (1 + cv^2)).
  std::vector<double> a_msgs(links * kClasses, 0.0);
  std::vector<double> a_flits(links * kClasses, 0.0);
  std::vector<double> a_flits2(links * kClasses, 0.0);
  std::vector<double> link_msgs(links, 0.0);
  std::vector<double> link_busy(links, 0.0);

  const auto flits_of = [&](double bytes) {
    return std::max(1.0, (bytes + static_cast<double>(prm.head_bytes)) /
                             static_cast<double>(prm.flit_bytes));
  };

  // Group the pair-major flow list by pair and walk each route exactly once
  // (the flows of one pair share it): the whole core is O(active flows +
  // active pairs * hops), never O(nodes^2 * classes).
  struct PairGroup {
    std::size_t fbegin, fend;     // flow range
    std::uint32_t rbegin, rend;   // route range (rend - rbegin == hops)
  };
  std::vector<PairGroup> groups;
  std::vector<std::uint32_t> route;  // concatenated link ids
  // Dimension-ordered mesh routes are emitted straight from coordinates:
  // the per-hop route_first/neighbor calls are the scoring hot path's
  // dominant cost on anything but toy traces.
  const noc::RoutingAlgo algo = routes.algo();
  const bool dor_mesh = topo.kind() == noc::Topology::Kind::kMesh &&
                        (algo == noc::RoutingAlgo::kXY ||
                         algo == noc::RoutingAlgo::kYX);
  const int width = topo.width();
  for (std::size_t f = 0; f < p.flows.size();) {
    const NodeId s = p.flows[f].src;
    const NodeId d = p.flows[f].dst;
    std::size_t g = f;
    while (g < p.flows.size() && p.flows[g].src == s && p.flows[g].dst == d) {
      ++g;
    }
    const auto rbegin = static_cast<std::uint32_t>(route.size());
    if (dor_mesh) {
      int cx = static_cast<int>(s) % width, cy = static_cast<int>(s) / width;
      const int dx = static_cast<int>(d) % width;
      const int dy = static_cast<int>(d) / width;
      const auto emit = [&](int dir) {
        route.push_back(static_cast<std::uint32_t>(cy * width + cx) *
                            static_cast<std::uint32_t>(radix) +
                        static_cast<std::uint32_t>(dir));
      };
      const auto walk_x = [&] {
        for (; cx != dx; cx += dx > cx ? 1 : -1) {
          emit(dx > cx ? noc::kEast : noc::kWest);
        }
      };
      const auto walk_y = [&] {
        for (; cy != dy; cy += dy > cy ? 1 : -1) {
          emit(dy > cy ? noc::kSouth : noc::kNorth);
        }
      };
      if (algo == noc::RoutingAlgo::kXY) {
        walk_x();
        walk_y();
      } else {
        walk_y();
        walk_x();
      }
    } else {
      // Every other kind/algorithm pair — torus DOR, ring, XYZ, up*/down*
      // tables — walks the shared routing table the networks route with, so
      // the model scores exactly the links the simulator would traverse.
      routes.walk(s, d, [&](NodeId cur, int dir) {
        route.push_back(static_cast<std::uint32_t>(cur) *
                            static_cast<std::uint32_t>(radix) +
                        static_cast<std::uint32_t>(dir));
      });
    }
    groups.push_back({f, g, rbegin, static_cast<std::uint32_t>(route.size())});
    f = g;
  }

  std::array<double, noc::kMsgClassCount> cv2{};
  for (std::size_t c = 0; c < noc::kMsgClassCount; ++c) {
    cv2[c] = p.cls[c].cv_sq();
  }

  // Pass 1: offered load per link.
  for (const auto& grp : groups) {
    for (std::size_t f = grp.fbegin; f < grp.fend; ++f) {
      const auto& fw = p.flows[f];
      if (!filter.accept(p, fw.src, fw.dst, fw.cls)) continue;
      const double fl = flits_of(fw.mean_bytes);
      const double fl2 =
          fl * fl * (1.0 + cv2[static_cast<std::size_t>(fw.cls)]);
      const auto c = static_cast<std::size_t>(fw.cls);
      for (std::uint32_t r = grp.rbegin; r < grp.rend; ++r) {
        const std::size_t link = route[r];
        a_msgs[link * kClasses + c] += fw.msgs;
        a_flits[link * kClasses + c] += fw.msgs * fl;
        a_flits2[link * kClasses + c] += fw.msgs * fl2;
        link_msgs[link] += fw.msgs;
        link_busy[link] += fw.msgs * fl;
      }
    }
  }

  // Per-link priority waits: W_c = W0 / ((1 - sigma_{c-1})(1 - sigma_c)),
  // W0 = 1/2 Sum_k lambda_k E[S_k^2], sigma_c the cumulative utilization of
  // priorities <= c.
  std::vector<double> link_wait(links * kClasses, 0.0);
  double bottleneck = 0.0;
  const double cap = wait_cap(p);
  for (std::size_t l = 0; l < links; ++l) {
    if (link_msgs[l] == 0) continue;
    bottleneck = std::max(bottleneck, link_busy[l]);
    double w0 = 0.0;
    for (int c = 0; c < kClasses; ++c) {
      const std::size_t i = l * kClasses + static_cast<std::size_t>(c);
      if (a_msgs[i] == 0) continue;
      const double lambda = a_msgs[i] / span;
      w0 += 0.5 * lambda * (a_flits2[i] / a_msgs[i]);
    }
    const double fp = finite_pop(link_msgs[l]);
    double sigma_prev = 0.0;
    for (int c = 0; c < kClasses; ++c) {
      const std::size_t i = l * kClasses + static_cast<std::size_t>(c);
      const double rho = a_flits[i] / span;
      const double sigma = sigma_prev + rho;
      if (a_msgs[i] > 0) {
        const double denom = std::max(kMinHeadroom, 1.0 - sigma_prev) *
                             std::max(kMinHeadroom, 1.0 - sigma);
        link_wait[i] = std::min(cap, fp * w0 / denom);
      }
      sigma_prev = sigma;
    }
  }

  // Pass 2: per-pair latency = zero-load path time + route waiting terms.
  CoreAcc acc;
  for (const auto& grp : groups) {
    const int hops = static_cast<int>(grp.rend - grp.rbegin);
    for (std::size_t f = grp.fbegin; f < grp.fend; ++f) {
      const auto& fw = p.flows[f];
      if (!filter.accept(p, fw.src, fw.dst, fw.cls)) continue;
      const double fl = flits_of(fw.mean_bytes);
      const double l0 =
          hops * (kRouterPipeline + static_cast<double>(prm.link_latency)) +
          (fl - 1.0) + kEjection;
      double wait = 0.0;
      const auto c = static_cast<std::size_t>(fw.cls);
      for (std::uint32_t r = grp.rbegin; r < grp.rend; ++r) {
        wait += link_wait[static_cast<std::size_t>(route[r]) * kClasses + c];
      }
      acc.add(fw.cls, fw.msgs, l0, wait);
    }
  }
  return acc.finish(bottleneck);
}

// ---------------------------------------------------------------------------
// ONoC: channel-serialization models per arbitration scheme. A transfer
// holds its channel for ser + guard cycles; the channel is the M/G/1
// station (FCFS — optical arbitration has no priority classes). Zero-load
// adds E/O + serialization + time-of-flight + O/E plus the scheme's fixed
// arbitration term (half a token round, the control-mesh round trip, ...).

/// Expected transmissions per message once the eroded loss budget implies a
/// nonzero BER (onoc/loss.hpp): every transfer re-arbitrates on corruption,
/// so the whole service inflates by the expected retry count.
double retx_factor(double ber, double mean_bytes) {
  if (ber <= 0.0) return 1.0;
  const double bits = std::max(1.0, mean_bytes * 8.0);
  // P(corrupt) = 1 - (1 - ber)^bits, computed stably, capped short of 1.
  const double p_bad =
      std::min(0.9, -std::expm1(bits * std::log1p(-std::min(ber, 0.1))));
  return 1.0 / (1.0 - p_bad);
}

AnalyticModel::LatencyCore onoc_core(const TraceProfile& p,
                                     const noc::Topology& topo,
                                     const onoc::OnocParams& prm,
                                     onoc::Arbitration arb, double ber,
                                     const PairClassFilter& filter) {
  const double span = static_cast<double>(p.span());
  const double bpc = prm.bytes_per_cycle();
  const double guard = static_cast<double>(prm.guard_cycles);
  const double eo = static_cast<double>(prm.eo_latency);
  const double oe = static_cast<double>(prm.oe_latency);
  const bool pooled = arb == onoc::Arbitration::kSharedPool;
  const std::size_t channels =
      pooled ? 1 : static_cast<std::size_t>(p.nodes);
  const double round =
      static_cast<double>(prm.token_round_cycles(p.nodes));

  // Fixed (load-independent) arbitration term per scheme, given the pair's
  // hop distance.
  const auto fixed_arb = [&](int dist) -> double {
    switch (arb) {
      case onoc::Arbitration::kTokenRing:
        return 0.5 * round;  // mean token position when requested
      case onoc::Arbitration::kSwmr:
        return 0.0;  // the source owns its channel outright
      case onoc::Arbitration::kSharedPool:
        return 0.5 * round;  // every grant pays the arbitration round
      case onoc::Arbitration::kPathSetup: {
        // Setup request + grant over the electrical control mesh.
        const double fl = std::max(
            1.0, (static_cast<double>(prm.ctrl_msg_bytes) +
                  static_cast<double>(prm.ctrl.head_bytes)) /
                     static_cast<double>(prm.ctrl.flit_bytes));
        const double one_way =
            dist * (kRouterPipeline +
                    static_cast<double>(prm.ctrl.link_latency)) +
            (fl - 1.0) + kEjection;
        return 2.0 * one_way;
      }
    }
    return 0.0;
  };

  const auto serc = [&](double bytes) { return std::max(1.0, bytes / bpc); };

  // Pass 1: per-channel load. Channel key: destination for MWSR schemes
  // (token, path setup's receiver), source for SWMR, the single pool for
  // kSharedPool.
  std::array<double, noc::kMsgClassCount> cv2{};
  for (std::size_t c = 0; c < noc::kMsgClassCount; ++c) {
    cv2[c] = p.cls[c].cv_sq();
  }
  std::vector<double> ch_msgs(channels, 0.0);
  std::vector<double> ch_busy(channels, 0.0);   // Sum msgs * (ser + guard)
  std::vector<double> ch_s2(channels, 0.0);     // Sum msgs * S^2 * (1+cv^2)
  for (const auto& fw : p.flows) {
    if (fw.src == fw.dst || !filter.accept(p, fw.src, fw.dst, fw.cls)) {
      continue;
    }
    const std::size_t ch =
        pooled ? 0
               : static_cast<std::size_t>(
                     arb == onoc::Arbitration::kSwmr ? fw.src : fw.dst);
    const double svc = (serc(fw.mean_bytes) + guard) *
                       retx_factor(ber, fw.mean_bytes);
    ch_msgs[ch] += fw.msgs;
    ch_busy[ch] += fw.msgs * svc;
    ch_s2[ch] += fw.msgs * svc * svc *
                 (1.0 + cv2[static_cast<std::size_t>(fw.cls)]);
  }

  // Per-channel queueing wait.
  const double cap = wait_cap(p);
  const int servers = pooled ? std::max(1, prm.pool_channels) : 1;
  std::vector<double> ch_wait(channels, 0.0);
  double bottleneck = 0.0;
  for (std::size_t ch = 0; ch < channels; ++ch) {
    if (ch_msgs[ch] == 0) continue;
    bottleneck =
        std::max(bottleneck, ch_busy[ch] / static_cast<double>(servers));
    const double lambda = ch_msgs[ch] / span;
    const double es = ch_busy[ch] / ch_msgs[ch];
    const double es2 = ch_s2[ch] / ch_msgs[ch];
    const double rho =
        lambda * es / static_cast<double>(servers);
    const double headroom = std::max(kMinHeadroom, 1.0 - rho);
    double wq;
    if (servers == 1) {
      wq = lambda * es2 / (2.0 * headroom);
    } else {
      // Sakasegawa's M/G/m approximation.
      const double m = static_cast<double>(servers);
      const double cs2 = es2 / (es * es) - 1.0;
      wq = std::pow(rho, std::sqrt(2.0 * (m + 1.0)) - 1.0) / (m * headroom) *
           es * (1.0 + std::max(0.0, cs2)) / 2.0;
    }
    ch_wait[ch] = std::min(cap, finite_pop(ch_msgs[ch]) * wq);
  }

  // Pass 2: per-pair latency. Flows are pair-major, so the distance (and
  // everything derived from it) is computed once per pair, not per flow.
  CoreAcc acc;
  NodeId dist_src = kInvalidNode, dist_dst = kInvalidNode;
  int dist = 0;
  for (const auto& fw : p.flows) {
    if (!filter.accept(p, fw.src, fw.dst, fw.cls)) continue;
    const double rf = retx_factor(ber, fw.mean_bytes);
    if (fw.src == fw.dst) {
      // Local loopback: conversion + serialization, no arbitration.
      acc.add(fw.cls, fw.msgs, eo + serc(fw.mean_bytes) * rf + oe, 0.0);
      continue;
    }
    if (fw.src != dist_src || fw.dst != dist_dst) {
      dist_src = fw.src;
      dist_dst = fw.dst;
      dist = topo.distance(fw.src, fw.dst);
    }
    const double tof =
        static_cast<double>(prm.tof_cycles(dist, topo.width()));
    const double l0 =
        eo + serc(fw.mean_bytes) * rf + tof + oe + fixed_arb(dist);
    const std::size_t ch =
        pooled ? 0
               : static_cast<std::size_t>(
                     arb == onoc::Arbitration::kSwmr ? fw.src : fw.dst);
    acc.add(fw.cls, fw.msgs, l0, ch_wait[ch]);
  }
  return acc.finish(bottleneck);
}

// ---------------------------------------------------------------------------
// Concrete models.

struct IdealModel final : AnalyticModel {
  noc::Topology topo;
  noc::IdealNetwork::Params prm;
  IdealModel(const noc::Topology& t, const noc::IdealNetwork::Params& pr)
      : topo(t), prm(pr) {}
  const char* name() const override { return "ideal"; }
  LatencyCore core(const TraceProfile& p) const override {
    return ideal_core(p, topo, prm);
  }
};

struct EnocModel final : AnalyticModel {
  noc::Topology topo;
  enoc::EnocParams prm;
  noc::RoutingTable routes;
  EnocModel(const noc::Topology& t, const enoc::EnocParams& pr)
      : topo(t), prm(pr), routes(t, pr.routing) {}
  const char* name() const override { return "enoc"; }
  LatencyCore core(const TraceProfile& p) const override {
    return enoc_core(p, topo, prm, routes, {});
  }
};

struct OnocModel final : AnalyticModel {
  noc::Topology topo;
  onoc::OnocParams prm;
  onoc::Arbitration arb;
  double ber = 0;
  OnocModel(const noc::Topology& t, const onoc::OnocParams& pr,
            onoc::Arbitration a, const fault::FaultSpec& fault)
      : topo(t), prm(pr), arb(a) {
    prm.validate();
    if (fault.enabled()) {
      // Same eroded-budget BER the simulator derives (onoc/loss.hpp).
      onoc::LossBudgetInputs in;
      in.nodes = topo.node_count();
      in.wavelengths = prm.wavelengths;
      in.channels_per_node = topo.node_count() - 1;
      in.die_edge_cm = prm.die_edge_cm;
      in.ring = prm.ring;
      in.waveguide = prm.waveguide;
      in.detector = prm.detector;
      in.laser = prm.laser;
      ber = onoc::faulted_bit_error_rate(in, fault.onoc_ring_drift_sigma_c,
                                         fault.onoc_laser_degradation_db);
    }
  }
  const char* name() const override { return "onoc"; }
  LatencyCore core(const TraceProfile& p) const override {
    return onoc_core(p, topo, prm, arb, ber, {});
  }
};

/// Steering-threshold-weighted mix: the profile's (pair, class) buckets are
/// assigned to a plane by the same rule HybridNetwork::goes_optical applies
/// per message (using the bucket's mean size), each plane is modeled on its
/// own sub-load, and the cores recombine by message weight.
struct HybridModel final : AnalyticModel {
  noc::Topology topo;
  enoc::EnocParams el_prm;
  onoc::OnocParams op_prm;
  onoc::HybridParams prm;
  noc::RoutingTable routes;  // electrical plane
  double ber = 0;
  HybridModel(const noc::Topology& t, const enoc::EnocParams& el,
              const onoc::OnocParams& op, const onoc::HybridParams& pr,
              const fault::FaultSpec& fault)
      : topo(t), el_prm(el), op_prm(op), prm(pr), routes(t, el.routing) {
    if (fault.enabled()) {
      onoc::LossBudgetInputs in;
      in.nodes = topo.node_count();
      in.wavelengths = op_prm.wavelengths;
      in.channels_per_node = topo.node_count() - 1;
      in.die_edge_cm = op_prm.die_edge_cm;
      in.ring = op_prm.ring;
      in.waveguide = op_prm.waveguide;
      in.detector = op_prm.detector;
      in.laser = op_prm.laser;
      ber = onoc::faulted_bit_error_rate(in, fault.onoc_ring_drift_sigma_c,
                                         fault.onoc_laser_degradation_db);
    }
  }
  const char* name() const override { return "hybrid"; }

  LatencyCore core(const TraceProfile& p) const override {
    std::vector<std::uint8_t> mask(
        static_cast<std::size_t>(p.nodes) * static_cast<std::size_t>(p.nodes) *
            kClasses,
        0);
    NodeId dist_src = kInvalidNode, dist_dst = kInvalidNode;
    bool far = false;
    for (const auto& fw : p.flows) {
      if (fw.src == fw.dst) continue;  // loopbacks stay electrical
      if (fw.src != dist_src || fw.dst != dist_dst) {
        dist_src = fw.src;
        dist_dst = fw.dst;
        far = topo.distance(fw.src, fw.dst) >= prm.distance_threshold;
      }
      const bool big =
          fw.mean_bytes >= static_cast<double>(prm.size_threshold);
      if (big || far) {
        mask[p.pair_index(fw.src, fw.dst) * kClasses +
             static_cast<std::size_t>(fw.cls)] = 1;
      }
    }
    const LatencyCore el =
        enoc_core(p, topo, el_prm, routes, {&mask, false});
    const LatencyCore op =
        onoc_core(p, topo, op_prm, op_prm.arbitration, ber, {&mask, true});
    LatencyCore out{};
    out.weight = el.weight + op.weight;
    if (out.weight > 0) {
      out.mean_latency = (el.weight * el.mean_latency +
                          op.weight * op.mean_latency) /
                         out.weight;
      out.mean_wait =
          (el.weight * el.mean_wait + op.weight * op.mean_wait) / out.weight;
    }
    out.max_zero_load = std::max(el.max_zero_load, op.max_zero_load);
    out.bottleneck_busy = std::max(el.bottleneck_busy, op.bottleneck_busy);
    for (int c = 0; c < kClasses; ++c) {
      const auto i = static_cast<std::size_t>(c);
      out.class_weight[i] = el.class_weight[i] + op.class_weight[i];
      if (out.class_weight[i] > 0) {
        out.class_latency[i] = (el.class_weight[i] * el.class_latency[i] +
                                op.class_weight[i] * op.class_latency[i]) /
                               out.class_weight[i];
      }
    }
    return out;
  }
};

}  // namespace

AnalyticResult AnalyticModel::estimate(const TraceProfile& p) const {
  AnalyticResult r;
  if (p.records == 0) return r;
  const LatencyCore c = core(p);
  r.est_mean_latency = c.mean_latency;
  r.per_class = c.class_latency;
  // Exponential tail approximation on the waiting share: p99 = slowest
  // zero-load pair + ln(100) * mean wait. Contention-free traces collapse
  // to the exact zero-load tail.
  r.est_p99 = std::max(c.mean_latency,
                       c.max_zero_load + std::log(100.0) * c.mean_wait);
  // Runtime: the dependency critical path evaluated at the estimated mean
  // latency, floored by the throughput bound of the busiest resource.
  const double chain = p.hull_eval(c.mean_latency);
  const double throughput =
      static_cast<double>(p.first_inject) + c.bottleneck_busy;
  r.est_runtime = std::max(chain, throughput);
  return r;
}

std::unique_ptr<AnalyticModel> make_model(const core::NetSpec& spec) {
  switch (spec.kind) {
    case core::NetKind::kIdeal:
      return std::make_unique<IdealModel>(spec.topo, spec.ideal);
    case core::NetKind::kEnoc:
      return std::make_unique<EnocModel>(spec.topo, spec.enoc);
    case core::NetKind::kOnocToken:
      return std::make_unique<OnocModel>(
          spec.topo, spec.onoc, onoc::Arbitration::kTokenRing, spec.fault);
    case core::NetKind::kOnocSetup:
      return std::make_unique<OnocModel>(
          spec.topo, spec.onoc, onoc::Arbitration::kPathSetup, spec.fault);
    case core::NetKind::kOnocSwmr:
      return std::make_unique<OnocModel>(
          spec.topo, spec.onoc, onoc::Arbitration::kSwmr, spec.fault);
    case core::NetKind::kHybrid:
      return std::make_unique<HybridModel>(spec.topo, spec.enoc, spec.onoc,
                                           spec.hybrid, spec.fault);
  }
  throw std::invalid_argument("make_model: bad NetKind");
}

AnalyticResult estimate(const TraceProfile& p, const core::NetSpec& spec) {
  return make_model(spec)->estimate(p);
}

}  // namespace sctm::analytic
