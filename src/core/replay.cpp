#include "core/replay.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace sctm::core {

const char* to_string(ReplayMode m) {
  switch (m) {
    case ReplayMode::kNaive: return "naive";
    case ReplayMode::kSelfCorrecting: return "self-correcting";
  }
  return "?";
}

Histogram ReplayResult::latency_histogram() const {
  Histogram h;
  for (std::size_t i = 0; i < inject_time.size(); ++i) {
    h.add(arrive_time[i] - inject_time[i]);
  }
  return h;
}

std::vector<bool> build_kept_deps(const ReplayTrace& rt,
                                  const ReplayConfig& config) {
  const bool naive = (config.mode == ReplayMode::kNaive);
  const std::uint32_t window = config.dependency_window;
  std::vector<bool> kept(rt.edge_count(), !naive);
  if (naive) return kept;

  // For a record over the window, rank its dependencies by (slack, parent
  // id, position) — parent ids ascend with record index — and keep the
  // first `window`. Scratch is reused across records.
  std::vector<std::uint32_t> order;
  std::vector<bool> keep;
  rt.for_each_dep_edge([&](std::uint32_t i, std::uint32_t k, std::uint32_t e) {
    const std::uint32_t dc = rt.dep_count(i);
    if (dc <= window) return;
    if (k == 0) {
      const auto key = [&](std::uint32_t d) {
        const std::uint32_t p = rt.dep_parent_index(i, d);
        return std::tuple(rt.slack(i, p), p, d);
      };
      order.resize(dc);
      std::iota(order.begin(), order.end(), 0u);
      std::nth_element(order.begin(), order.begin() + window, order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return key(a) < key(b);
                       });
      keep.assign(dc, false);
      for (std::uint32_t r = 0; r < window; ++r) keep[order[r]] = true;
    }
    kept[e] = keep[k];
  });
  return kept;
}

}  // namespace sctm::core
