// Metric extraction and reporting helpers for the benchmark: sample
// summaries, layer counts pulled from the library's stat snapshots, the
// simulated-statistics digest, and the one-line JSON result.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/run_metrics.hpp"
#include "common/stats.hpp"
#include "tracestore/format.hpp"

namespace perfbench {

/// Median, quartiles and tail of a timing's samples. `tail_pct` is the
/// highest of the standard percentiles (50, 75, 90, 95, 99) that leaves at
/// least ten samples above it; 0 when the sample count allows none.
struct Summary {
  std::size_t n = 0;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double tail_pct = 0;
  double tail = 0;
};

/// Quantile `q` in [0, 1] of sorted samples, interpolating linearly between
/// closest ranks. Throws on an empty input.
double quantile(const std::vector<double>& sorted, double q);

Summary summarize(std::vector<double> samples);

/// Sum of every counter whose name ends in "." + `leaf` (per-router or
/// per-plane counters such as "enoc.r17.xbar_traversals").
std::uint64_t sum_counters(const sctm::StatRegistry& stats,
                           std::string_view leaf);

/// Mean over every accumulator whose name ends in "." + `leaf`, merged.
double merged_mean(const sctm::StatRegistry& stats, std::string_view leaf);

/// The named phase of a run's phase log; throws when it is missing, so a
/// renamed phase fails the run instead of reading as zero.
const sctm::PhaseMetrics& phase(const std::vector<sctm::PhaseMetrics>& log,
                                std::string_view name);

/// FNV-1a digest of simulated statistics. Doubles enter by bit pattern, so
/// any change in a simulated value changes the digest.
class Digest {
 public:
  void add(std::uint64_t v) { h_.update(&v, sizeof v); }
  void add(double v);
  void add(std::string_view s);
  std::uint64_t value() const { return h_.value(); }
  std::string hex() const;

 private:
  sctm::tracestore::Fnv1a64 h_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics);

}  // namespace perfbench
