// Design-space exploration over a single captured trace.
//
// The workflow the trace pipeline exists for: capture once on any network,
// then evaluate many candidate network designs at replay speed — in
// parallel, since each candidate replays in its own Simulator. Results come
// back ranked by predicted application-visible runtime.
//
// Two tiers (DESIGN.md §12): full replay of every candidate (this file),
// and analytic screening (src/analytic/screen.hpp), which scores every
// candidate from a one-pass TraceProfile and confirms only the top-K with
// replay. ExploreConfig carries the knobs for both so one config travels
// the whole pipeline; screen_top_k is interpreted by the screening layer.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/run_metrics.hpp"
#include "core/replay.hpp"
#include "core/driver.hpp"

namespace sctm::core {

struct Candidate {
  std::string name;
  NetSpec spec;
};

struct ExploreResult {
  std::string name;
  Cycle runtime = 0;
  double mean_latency = 0;
  Cycle p99_latency = 0;
  int iterations = 1;
  double wall_seconds = 0;

  /// True when the numbers above come from full replay; false for
  /// analytic-only (screened-out) candidates, whose replay fields are 0.
  bool replayed = true;
  /// 1-based position in the analytic ranking (0 when no screen ran).
  std::size_t analytic_rank = 0;
  /// Tier-0 estimates (populated only when a screen ran).
  double est_runtime = 0;
  double est_mean_latency = 0;
  double est_p99 = 0;
  /// Wall seconds of the analytic scoring for this candidate.
  double analytic_seconds = 0;
};

struct ExploreConfig {
  ReplayConfig replay{};
  /// Candidate-level workers (0 = hardware concurrency).
  unsigned threads = 0;
  /// 0 = replay every candidate. K >= 1 = rank all candidates analytically
  /// and confirm only the top K with full replay (analytic::explore_screened).
  std::size_t screen_top_k = 0;
};

/// Reads the "explore.screen.*" keys ("explore.screen.top_k") on top of
/// `base`. An explicit top_k of 0 (or a negative value) hard-errors with
/// the key's source line: a screen that confirms nothing is a config bug,
/// not a request for an empty table. Any other "explore.*" key is an error
/// (Config::reject_unread).
ExploreConfig explore_config_from(const Config& cfg,
                                  const ExploreConfig& base = {});

/// Parses a candidates config ("candidate.<name>.<param>" namespaces using
/// the experiment-config vocabulary) into named NetSpecs. Hard-errors — with
/// `source`-prefixed, line-numbered messages — on malformed keys, on
/// per-candidate specs that fail to build, on a candidate key no parser
/// reads (Config::reject_unread), and on a file defining no
/// candidates at all (an empty design space is a config bug, never an empty
/// table). Keys under "explore." are reserved for explore_config_from and
/// skipped here; any other unknown top-level key is an error.
std::vector<Candidate> candidates_from_config(const Config& cfg,
                                              const std::string& source);

/// Each candidate's index by name. Results name their candidate, so a name
/// must pick out one: throws std::invalid_argument naming the first name
/// that repeats.
std::unordered_map<std::string, std::size_t> index_by_name(
    const std::vector<Candidate>& candidates);

/// Replays `rt` over every candidate (parallel across cfg.threads workers;
/// 0 = hardware concurrency) and returns results sorted by runtime
/// ascending (ties by name). Deterministic: thread scheduling cannot change
/// any result, only the wall clock. Throws std::invalid_argument on an
/// empty candidate list or a repeated candidate name, before anything runs.
/// cfg.screen_top_k is ignored here — screening lives in
/// analytic::explore_screened, which delegates to this.
std::vector<ExploreResult> explore(const ReplayTrace& rt,
                                   const std::vector<Candidate>& candidates,
                                   const ExploreConfig& cfg = {});

/// Standard metrics document for an exploration: manifest identifies the
/// exact trace (id + content hash), the resolved candidate count, replay
/// mode and screen setting; results.ranking carries one entry per candidate
/// with both the analytic and (when replayed) full-replay numbers.
RunMetrics metrics_for_explore(const ReplayTrace& rt,
                               const std::vector<Candidate>& candidates,
                               const ExploreConfig& cfg,
                               const std::vector<ExploreResult>& results,
                               std::string tool, std::string created);

}  // namespace sctm::core
