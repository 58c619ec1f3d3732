#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/json.hpp"

namespace sctm {

Histogram::Histogram(std::uint64_t dense_limit) : dense_limit_(dense_limit) {}

void Histogram::add(std::uint64_t value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_lo_ += value;
  if (value < dense_limit_) {
    // Geometric growth: a slowly rising max (packet latencies creeping up
    // under load) costs O(log max) reallocations over a run, not one per new
    // maximum — the delivery path must stay allocation-free in steady state.
    if (dense_.size() <= value) dense_.resize(std::bit_ceil(value + 1), 0);
    ++dense_[value];
  } else {
    ++overflow_[value];
  }
}

double Histogram::mean() const {
  return count_ ? static_cast<double>(sum_lo_) / static_cast<double>(count_)
                : 0.0;
}

std::uint64_t Histogram::min() const { return count_ ? min_ : 0; }
std::uint64_t Histogram::max() const { return count_ ? max_ : 0; }

std::uint64_t Histogram::percentile(double q) const {
  if (count_ == 0) return 0;
  // NaN first: std::clamp on NaN is unspecified and the rank cast below
  // would be UB. Treat it like q <= 0 (the smallest recorded value).
  if (std::isnan(q)) q = 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based; ceil(q * count) with a floor of 1.
  const double exact = q * static_cast<double>(count_);
  std::uint64_t rank = static_cast<std::uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;

  std::uint64_t seen = 0;
  for (std::uint64_t v = 0; v < dense_.size(); ++v) {
    seen += dense_[v];
    if (seen >= rank) return v;
  }
  for (const auto& [v, n] : overflow_) {
    seen += n;
    if (seen >= rank) return v;
  }
  return max_;
}

std::uint64_t Histogram::count_at(std::uint64_t value) const {
  if (value < dense_.size()) return dense_[value];
  const auto it = overflow_.find(value);
  return it == overflow_.end() ? 0 : it->second;
}

void Histogram::write_json(JsonWriter& w, bool with_buckets) const {
  w.begin_object();
  w.key("count");
  w.value(count_);
  w.key("mean");
  w.value(mean());
  w.key("min");
  w.value(min());
  w.key("max");
  w.value(max());
  w.key("p50");
  w.value(percentile(0.5));
  w.key("p95");
  w.value(percentile(0.95));
  w.key("p99");
  w.value(percentile(0.99));
  if (with_buckets) {
    w.key("buckets");
    w.begin_array();
    for (std::uint64_t v = 0; v < dense_.size(); ++v) {
      if (dense_[v] == 0) continue;
      w.begin_array();
      w.value(v);
      w.value(dense_[v]);
      w.end_array();
    }
    for (const auto& [v, n] : overflow_) {
      w.begin_array();
      w.value(v);
      w.value(n);
      w.end_array();
    }
    w.end_array();
  }
  w.end_object();
}

}  // namespace sctm
