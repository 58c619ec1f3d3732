#include "analytic/trace_profile.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/flat_map.hpp"

namespace sctm::analytic {

double ClassStats::cv_sq() const {
  if (messages == 0) return 0.0;
  const double m = mean_bytes();
  if (m <= 0.0) return 0.0;
  const double ex2 = sum_bytes_sq / static_cast<double>(messages);
  const double var = ex2 - m * m;
  return var <= 0.0 ? 0.0 : var / (m * m);
}

double TraceProfile::hull_eval(double mean_latency) const {
  if (hull.empty()) return 0.0;
  const auto it =
      std::upper_bound(hull_breaks.begin(), hull_breaks.end(), mean_latency);
  const auto idx = static_cast<std::size_t>(it - hull_breaks.begin());
  return hull[idx].base + hull[idx].depth * mean_latency;
}

namespace {

/// x past which line `b` beats line `a` (requires b.depth > a.depth).
double overtake_x(const TraceProfile::ChainLine& a,
                  const TraceProfile::ChainLine& b) {
  return (a.base - b.base) / (b.depth - a.depth);
}

/// Builds the upper envelope of `lines` (ascending slope, one entry per
/// distinct depth, each already the max base at that depth).
void build_hull(const std::vector<TraceProfile::ChainLine>& lines,
                TraceProfile& out) {
  out.hull.clear();
  for (const auto& l : lines) {
    // Pop the middle line while it is nowhere maximal: the new line
    // overtakes the second-to-last before the last one ever got on top.
    while (out.hull.size() >= 2) {
      const auto& l1 = out.hull[out.hull.size() - 2];
      const auto& l2 = out.hull.back();
      if (overtake_x(l1, l) <= overtake_x(l1, l2)) {
        out.hull.pop_back();
      } else {
        break;
      }
    }
    out.hull.push_back(l);
  }
  out.hull_breaks.clear();
  for (std::size_t i = 0; i + 1 < out.hull.size(); ++i) {
    out.hull_breaks.push_back(overtake_x(out.hull[i], out.hull[i + 1]));
  }
}

}  // namespace

TraceProfile profile_trace(const core::ReplayTrace& rt) {
  if (!rt.finalized()) {
    throw std::logic_error("profile_trace: ReplayTrace not finalized");
  }
  TraceProfile p;
  const std::uint32_t n = rt.size();
  p.records = n;
  p.capture_runtime = rt.capture_runtime();

  p.nodes = std::max(rt.nodes(), 1);
  if (n == 0) return p;

  p.first_inject = kNoCycle;
  p.last_inject = 0;

  // Offered load per flow key (src * nodes + dst) * classes + cls. The load
  // keeps every endpoint inside [0, nodes), so keys are unique and their
  // order is (src, dst, cls) order; the largest, 4 * nodes^2 - 1, stays
  // below FlatMap's all-ones sentinel for any int32 node count. Bytes sum as
  // integers: each partial sum is exact, so a flow's mean is the same double
  // at any record order.
  static_assert(noc::kMsgClassCount <= 4, "flow keys must fit 64 bits");
  struct FlowSum {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };
  FlatMap<std::uint64_t, FlowSum> load;
  const auto nodes = static_cast<std::uint64_t>(p.nodes);
  std::uint64_t dep_edges = 0;

  // Dominant-chain DP. Two summaries per record — the chain maximizing the
  // accumulated base and the chain maximizing the depth — both feed the
  // envelope; tracking only one would let the other extreme's chain (which
  // dominates at the opposite end of the latency axis) escape the hull.
  std::vector<double> base_b(n), base_d(n);
  std::vector<std::uint32_t> depth_b(n), depth_d(n);
  // depth -> max base at that depth (dense; depth <= n).
  std::vector<double> best_at_depth;

  for (std::uint32_t i = 0; i < n; ++i) {
    const auto bytes = static_cast<double>(rt.size_bytes(i));
    const auto c = static_cast<std::size_t>(rt.cls(i));
    const Cycle inj = rt.inject_time(i);
    p.first_inject = std::min(p.first_inject, inj);
    p.last_inject = std::max(p.last_inject, inj);

    const std::uint64_t key =
        (static_cast<std::uint64_t>(rt.src(i)) * nodes +
         static_cast<std::uint64_t>(rt.dst(i))) *
            noc::kMsgClassCount +
        c;
    if (FlowSum* f = load.find(key)) {
      f->msgs += 1;
      f->bytes += rt.size_bytes(i);
    } else {
      load.insert(key, {1, rt.size_bytes(i)});
    }
    p.cls[c].messages += 1;
    p.cls[c].sum_bytes += bytes;
    p.cls[c].sum_bytes_sq += bytes * bytes;

    const std::uint32_t fanin = rt.dep_count(i);
    if (fanin == 0) {
      // Anchored record: replay injects it at its captured time.
      ++p.roots;
      base_b[i] = base_d[i] = static_cast<double>(inj);
      depth_b[i] = depth_d[i] = 1;
    } else {
      double bb = 0, bd = 0;
      std::uint32_t db = 0, dd = 0;
      bool first = true;
      for (std::uint32_t k = 0; k < fanin; ++k) {
        const std::uint32_t parent = rt.dep_parent_index(i, k);
        const auto slack = static_cast<double>(rt.slack(i, parent));
        // Both parent summaries are candidate chains through this edge.
        const double cand_base[2] = {base_b[parent] + slack,
                                     base_d[parent] + slack};
        const std::uint32_t cand_depth[2] = {depth_b[parent] + 1,
                                             depth_d[parent] + 1};
        for (int v = 0; v < 2; ++v) {
          if (first || cand_base[v] > bb ||
              (cand_base[v] == bb && cand_depth[v] > db)) {
            bb = cand_base[v];
            db = cand_depth[v];
          }
          if (first || cand_depth[v] > dd ||
              (cand_depth[v] == dd && cand_base[v] > bd)) {
            dd = cand_depth[v];
            bd = cand_base[v];
          }
          first = false;
        }
      }
      base_b[i] = bb;
      depth_b[i] = db;
      base_d[i] = bd;
      depth_d[i] = dd;
    }
    dep_edges += fanin;
    p.critical_depth = std::max(p.critical_depth, depth_d[i]);

    for (const std::uint32_t d : {depth_b[i], depth_d[i]}) {
      if (best_at_depth.size() < d) best_at_depth.resize(d, -1.0);
      const double b = d == depth_b[i] ? base_b[i] : base_d[i];
      best_at_depth[d - 1] = std::max(best_at_depth[d - 1], b);
    }
  }

  // Only the active keys are sorted, never one key per record.
  std::vector<std::pair<std::uint64_t, FlowSum>> active;
  active.reserve(load.size());
  load.for_each([&](std::uint64_t key, const FlowSum& f) {
    active.emplace_back(key, f);
  });
  std::sort(active.begin(), active.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  p.flows.reserve(active.size());
  for (const auto& [key, f] : active) {
    const std::uint64_t pair = key / noc::kMsgClassCount;
    const auto msgs = static_cast<double>(f.msgs);
    p.flows.push_back({static_cast<NodeId>(pair / nodes),
                       static_cast<NodeId>(pair % nodes),
                       static_cast<std::int32_t>(key % noc::kMsgClassCount),
                       msgs, static_cast<double>(f.bytes) / msgs});
  }

  p.mean_fanin = static_cast<double>(dep_edges) / static_cast<double>(n);

  std::vector<TraceProfile::ChainLine> lines;
  lines.reserve(best_at_depth.size());
  for (std::size_t d = 0; d < best_at_depth.size(); ++d) {
    if (best_at_depth[d] >= 0.0) {
      lines.push_back({best_at_depth[d], static_cast<double>(d + 1)});
    }
  }
  build_hull(lines, p);
  return p;
}

}  // namespace sctm::analytic
