#include "core/replay.hpp"

#include <algorithm>

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

KeptDepsCsr build_kept_deps(const ReplayTrace& rt,
                            const ReplayConfig& config) {
  const std::uint32_t n = rt.size();
  const bool naive = (config.mode == ReplayMode::kNaive);
  const std::uint32_t window = config.dependency_window;

  KeptDepsCsr csr;
  csr.offset.assign(n + 1, 0);
  if (naive) return csr;

  std::size_t total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    total += std::min<std::size_t>(rt.dep_count(i), window);
  }
  csr.deps.reserve(total);

  // Scratch reused across records: sort a record's full dependency list by
  // (slack, parent) only when it overflows the window.
  std::vector<trace::TraceDep> scratch;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rt.dep_count(i) <= window) {
      csr.deps.insert(csr.deps.end(), rt.deps_begin(i), rt.deps_end(i));
    } else {
      // The `window` smallest-slack dependencies (ties broken by parent id
      // for determinism).
      scratch.assign(rt.deps_begin(i), rt.deps_end(i));
      std::sort(scratch.begin(), scratch.end(),
                [](const auto& a, const auto& b) {
                  if (a.slack != b.slack) return a.slack < b.slack;
                  return a.parent < b.parent;
                });
      csr.deps.insert(csr.deps.end(), scratch.begin(), scratch.begin() + window);
    }
    csr.offset[i + 1] = static_cast<std::uint32_t>(csr.deps.size());
  }
  return csr;
}

}  // namespace sctm::core
