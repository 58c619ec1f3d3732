#include "core/explore.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <stdexcept>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "core/experiment.hpp"
#include "core/replay_session.hpp"
#include "tracestore/format.hpp"

namespace sctm::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One worker: drains candidates off the shared counter with a single
/// long-lived ReplaySession. Rebinding to each candidate builds its network
/// and keeps the session's trace binding, kept-edge flags and pass buffers.
void evaluate_candidates(const ReplayTrace& rt,
                         const std::vector<Candidate>& candidates,
                         const ReplayConfig& config,
                         std::atomic<std::size_t>& next,
                         std::vector<ExploreResult>& out) {
  std::optional<ReplaySession> session;
  for (;;) {
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= candidates.size()) return;
    const auto t0 = std::chrono::steady_clock::now();
    const NetSpec& spec = candidates[i].spec;
    if (!session) {
      session.emplace(rt, spec, config);
    } else {
      session->rebind(spec);
    }
    const ReplayResult& res = session->run();
    const Histogram h = res.latency_histogram();
    out[i].name = candidates[i].name;
    out[i].runtime = res.runtime;
    out[i].mean_latency = h.mean();
    out[i].p99_latency = h.percentile(0.99);
    out[i].iterations = res.iterations;
    out[i].wall_seconds = seconds_since(t0);
  }
}

/// "<source>:<line>: " / "<source>: " prefix for candidate-config errors.
std::string at(const std::string& source, const Config& cfg,
               const std::string& key) {
  if (const auto line = cfg.source_line(key)) {
    return source + ":" + std::to_string(*line) + ": ";
  }
  return source + ": ";
}

}  // namespace

ExploreConfig explore_config_from(const Config& cfg,
                                  const ExploreConfig& base) {
  ExploreConfig out = base;
  constexpr const char* kTopK = "explore.screen.top_k";
  const std::int64_t k = cfg.get_int(kTopK, 0);
  if (cfg.contains(kTopK)) {
    if (k < 1) {
      throw std::runtime_error(
          at("explore config", cfg, kTopK) +
          "explore.screen.top_k must be >= 1 (a screen that confirms no "
          "candidate is a config bug), got " + std::to_string(k));
    }
    out.screen_top_k = static_cast<std::size_t>(k);
  }
  cfg.reject_unread("explore.");
  return out;
}

std::vector<Candidate> candidates_from_config(const Config& cfg,
                                              const std::string& source) {
  std::map<std::string, Config> subs;       // name -> per-candidate config
  std::map<std::string, std::string> anchor;  // name -> first source key
  for (const auto& key : cfg.keys()) {
    constexpr std::string_view kPrefix = "candidate.";
    if (key.rfind("explore.", 0) == 0) continue;  // explore_config_from's
    if (key.rfind(kPrefix, 0) != 0) {
      throw std::runtime_error(at(source, cfg, key) + "unknown key '" + key +
                               "' (expected candidate.<name>.<param> or "
                               "explore.*)");
    }
    const std::string rest = key.substr(kPrefix.size());
    const auto dot = rest.find('.');
    if (dot == std::string::npos || dot == 0) {
      throw std::runtime_error(at(source, cfg, key) +
                               "expected candidate.<name>.<param>, got '" +
                               key + "'");
    }
    const std::string name = rest.substr(0, dot);
    subs[name].set(rest.substr(dot + 1), cfg.get_string(key));
    anchor.emplace(name, key);  // keeps the first (lowest) key per candidate
  }
  if (subs.empty()) {
    throw std::runtime_error(
        source + ": no candidate.<name>.* keys — an empty design space is a "
                 "config error, not an empty ranking");
  }
  std::vector<Candidate> out;
  out.reserve(subs.size());
  for (auto& [name, sub] : subs) {
    try {
      out.push_back({name, netspec_from_config(sub, "net")});
      // A key no parser read would otherwise silently mean "the default".
      sub.reject_unread("");
    } catch (const UnreadKeyError& e) {
      throw std::runtime_error(
          at(source, cfg, "candidate." + name + "." + e.key()) +
          "candidate '" + name + "': " + e.what());
    } catch (const std::exception& e) {
      throw std::runtime_error(at(source, cfg, anchor.at(name)) +
                               "candidate '" + name + "': " + e.what());
    }
  }
  return out;
}

std::unordered_map<std::string, std::size_t> index_by_name(
    const std::vector<Candidate>& candidates) {
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!index.emplace(candidates[i].name, i).second) {
      throw std::invalid_argument("explore: candidate name '" +
                                  candidates[i].name + "' repeats");
    }
  }
  return index;
}

std::vector<ExploreResult> explore(const ReplayTrace& rt,
                                   const std::vector<Candidate>& candidates,
                                   const ExploreConfig& cfg) {
  if (candidates.empty()) {
    throw std::invalid_argument(
        "explore: empty candidate list (nothing to rank)");
  }
  index_by_name(candidates);
  std::vector<ExploreResult> out(candidates.size());

  if (rt.empty()) {
    // As in run_replay(), an empty trace builds no network.
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      out[i].name = candidates[i].name;
    }
  } else {
    // One task per worker: each drains the shared candidate counter with its
    // own long-lived session. A failing task drains the counter so sibling
    // workers stop promptly; parallel_for rethrows the first exception.
    const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
        resolve_threads(cfg.threads), candidates.size()));
    std::atomic<std::size_t> next{0};
    parallel_for(
        workers,
        [&](std::size_t) {
          try {
            evaluate_candidates(rt, candidates, cfg.replay, next, out);
          } catch (...) {
            next.store(candidates.size(), std::memory_order_relaxed);
            throw;
          }
        },
        workers);
  }

  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.runtime != b.runtime) return a.runtime < b.runtime;
    return a.name < b.name;
  });
  return out;
}

RunMetrics metrics_for_explore(const ReplayTrace& rt,
                               const std::vector<Candidate>& candidates,
                               const ExploreConfig& cfg,
                               const std::vector<ExploreResult>& results,
                               std::string tool, std::string created) {
  RunMetrics m;
  m.manifest.tool = std::move(tool);
  m.manifest.created = std::move(created);
  m.manifest.set("trace", trace_id(rt));
  // Content hash of the exact trace (tracestore catalog identity): a
  // screened ranking is attributable to one trace, not just its app name.
  m.manifest.set("trace_content_hash", tracestore::hash_hex(rt.content_hash()));
  m.manifest.set("candidates", static_cast<std::int64_t>(candidates.size()));
  m.manifest.set("mode", to_string(cfg.replay.mode));
  m.manifest.set("screen_top_k",
                 static_cast<std::int64_t>(cfg.screen_top_k));

  JsonWriter results_json;
  results_json.begin_object();
  results_json.key("ranking");
  results_json.begin_array();
  for (const auto& r : results) {
    results_json.begin_object();
    results_json.key("name");
    results_json.value(r.name);
    results_json.key("replayed");
    results_json.value(r.replayed);
    if (r.replayed) {
      results_json.key("runtime_cycles");
      results_json.value(std::uint64_t{r.runtime});
      results_json.key("latency_mean");
      results_json.value(r.mean_latency);
      results_json.key("latency_p99");
      results_json.value(std::uint64_t{r.p99_latency});
      results_json.key("iterations");
      results_json.value(static_cast<std::int64_t>(r.iterations));
      results_json.key("wall_seconds");
      results_json.value(r.wall_seconds);
    }
    if (r.analytic_rank != 0) {
      results_json.key("analytic_rank");
      results_json.value(static_cast<std::uint64_t>(r.analytic_rank));
      results_json.key("est_runtime");
      results_json.value(r.est_runtime);
      results_json.key("est_latency_mean");
      results_json.value(r.est_mean_latency);
      results_json.key("est_latency_p99");
      results_json.value(r.est_p99);
      results_json.key("analytic_seconds");
      results_json.value(r.analytic_seconds);
    }
    results_json.end_object();
  }
  results_json.end_array();
  results_json.end_object();
  m.set_results_json(std::move(results_json).str());
  return m;
}

}  // namespace sctm::core
