#include "analytic/screen.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "analytic/trace_profile.hpp"

namespace sctm::analytic {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::vector<core::ExploreResult> explore_screened(
    const core::ReplayTrace& rt,
    const std::vector<core::Candidate>& candidates,
    const core::ExploreConfig& cfg) {
  if (candidates.empty()) {
    throw std::invalid_argument(
        "explore: empty candidate list (nothing to rank)");
  }
  // A screen wider than the field, a disabled screen, or an empty trace
  // (nothing to profile) all collapse to plain full replay.
  if (cfg.screen_top_k == 0 || cfg.screen_top_k >= candidates.size() ||
      rt.empty()) {
    return core::explore(rt, candidates, cfg);
  }
  const std::size_t k = cfg.screen_top_k;
  const std::size_t n = candidates.size();
  const auto index = core::index_by_name(candidates);

  // Tier 0: one streaming pass over the trace, then O(flows + active pairs
  // * hops) per candidate — no Simulator, no network, no events.
  const TraceProfile profile = profile_trace(rt);
  std::vector<core::ExploreResult> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const AnalyticResult est = estimate(profile, candidates[i].spec);
    out[i].name = candidates[i].name;
    out[i].replayed = false;
    out[i].est_runtime = est.est_runtime;
    out[i].est_mean_latency = est.est_mean_latency;
    out[i].est_p99 = est.est_p99;
    out[i].analytic_seconds = seconds_since(t0);
  }

  // Analytic ranking: estimated runtime ascending, ties by name — the same
  // tie-break core::explore uses, so the two tiers order identically when
  // the estimator agrees with replay.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (out[a].est_runtime != out[b].est_runtime) {
      return out[a].est_runtime < out[b].est_runtime;
    }
    return out[a].name < out[b].name;
  });
  for (std::size_t r = 0; r < n; ++r) out[order[r]].analytic_rank = r + 1;

  // Tier 1: confirm the analytic top-K with full self-correcting replay.
  std::vector<core::Candidate> top;
  top.reserve(k);
  for (std::size_t r = 0; r < k; ++r) top.push_back(candidates[order[r]]);
  const std::vector<core::ExploreResult> confirmed =
      core::explore(rt, top, cfg);

  // Overlay replay numbers onto the screened entries.
  for (const auto& c : confirmed) {
    const std::size_t i = index.at(c.name);
    out[i].replayed = true;
    out[i].runtime = c.runtime;
    out[i].mean_latency = c.mean_latency;
    out[i].p99_latency = c.p99_latency;
    out[i].iterations = c.iterations;
    out[i].wall_seconds = c.wall_seconds;
  }

  // Final order: confirmed candidates first (by replayed runtime, the
  // trustworthy number), then the analytic-only tail by estimate.
  std::sort(out.begin(), out.end(),
            [](const core::ExploreResult& a, const core::ExploreResult& b) {
              if (a.replayed != b.replayed) return a.replayed;
              if (a.replayed) {
                if (a.runtime != b.runtime) return a.runtime < b.runtime;
              } else if (a.est_runtime != b.est_runtime) {
                return a.est_runtime < b.est_runtime;
              }
              return a.name < b.name;
            });
  return out;
}

}  // namespace sctm::analytic
