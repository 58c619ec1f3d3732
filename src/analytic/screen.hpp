// Two-tier exploration: analytic screen + replay confirmation.
//
// explore_screened() is the screening-aware front door of the exploration
// pipeline. With ExploreConfig::screen_top_k == 0 it is exactly
// core::explore() (every candidate replayed). With K >= 1 it profiles the
// trace once (O(records)), scores every candidate analytically
// (O(flows + active pairs * hops) each — microseconds), ranks by estimated
// runtime, and spends full self-correcting replay only on the top K. Every
// result carries its analytic rank and estimates; the K confirmed ones
// carry replay numbers too, and sort ahead of the analytic-only tail.
#pragma once

#include <vector>

#include "analytic/model.hpp"
#include "core/explore.hpp"

namespace sctm::analytic {

/// Screened exploration (see file comment). Deterministic at any thread
/// count: scoring is a pure function per candidate, replay is
/// core::explore(). Throws std::invalid_argument on an empty candidate
/// list or a repeated candidate name, like core::explore(), before
/// anything runs.
std::vector<core::ExploreResult> explore_screened(
    const core::ReplayTrace& rt,
    const std::vector<core::Candidate>& candidates,
    const core::ExploreConfig& cfg = {});

}  // namespace sctm::analytic
