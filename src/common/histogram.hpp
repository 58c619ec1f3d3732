// Latency histogram with exact percentiles.
//
// Packet latencies are small integers (cycles), so we keep exact counts in a
// growable dense array up to a cap and a sparse overflow map beyond it. This
// gives exact p50/p95/p99 — important because the accuracy experiments
// (R-F1/R-F2) compare tail latencies between simulation modes.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace sctm {

class JsonWriter;

class Histogram {
 public:
  /// `dense_limit` bounds the dense region; samples >= limit go to the sparse
  /// overflow map (still exact, just slower).
  explicit Histogram(std::uint64_t dense_limit = 4096);

  void add(std::uint64_t value);

  std::uint64_t count() const { return count_; }
  double mean() const;
  std::uint64_t min() const;
  std::uint64_t max() const;

  /// Exact percentile: smallest value v such that at least q*count samples
  /// are <= v; q=0.5 is the median. Every input is defined: an empty
  /// histogram returns 0, q is clamped to [0,1] (q <= 0 gives the smallest
  /// recorded value, q >= 1 the largest), and a NaN q behaves like q = 0.
  std::uint64_t percentile(double q) const;

  /// Count of samples exactly equal to `value`.
  std::uint64_t count_at(std::uint64_t value) const;

  /// Emits {"count","mean","min","max","p50","p95","p99"} as the writer's
  /// next value; `with_buckets` appends "buckets": [[value, count], ...]
  /// (ascending by value — the exact distribution, not a lossy rebin).
  void write_json(JsonWriter& w, bool with_buckets = false) const;

 private:
  std::uint64_t dense_limit_;
  std::vector<std::uint64_t> dense_;
  std::map<std::uint64_t, std::uint64_t> overflow_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_lo_ = 0;  // running sum (64-bit is ample for our scales)
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace sctm
