#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/json.hpp"

namespace sctm {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Accumulator::merge(const Accumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  // Sample variance: m2_ accumulates the sum of squared deviations, Bessel's
  // correction divides by n-1 (see header for the rationale).
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Accumulator::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("n");
  w.value(n_);
  w.key("mean");
  w.value(mean());
  w.key("min");
  w.value(min());
  w.key("max");
  w.value(max());
  w.key("stddev");
  w.value(stddev());
  w.end_object();
}

std::uint64_t& StatRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), 0).first->second;
}

Accumulator& StatRegistry::accumulator(std::string_view name) {
  const auto it = accumulators_.find(name);
  if (it != accumulators_.end()) return it->second;
  return accumulators_.emplace(std::string(name), Accumulator{}).first->second;
}

bool StatRegistry::has_counter(std::string_view name) const {
  return counters_.find(name) != counters_.end();
}

bool StatRegistry::has_accumulator(std::string_view name) const {
  return accumulators_.find(name) != accumulators_.end();
}

std::uint64_t StatRegistry::counter_value(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::vector<std::string> StatRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(counters_.size() + accumulators_.size());
  for (const auto& [k, v] : counters_) out.push_back(k);
  for (const auto& [k, v] : accumulators_) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

std::string StatRegistry::report() const {
  std::ostringstream ss;
  for (const auto& [k, v] : counters_) ss << k << " = " << v << '\n';
  for (const auto& [k, a] : accumulators_) {
    ss << k << " : n=" << a.count() << " mean=" << a.mean()
       << " min=" << a.min() << " max=" << a.max() << " sd=" << a.stddev()
       << '\n';
  }
  return ss.str();
}

void StatRegistry::write_counters_json(JsonWriter& w) const {
  w.begin_object();
  for (const auto& [k, v] : counters_) {
    w.key(k);
    w.value(v);
  }
  w.end_object();
}

void StatRegistry::write_accumulators_json(JsonWriter& w) const {
  w.begin_object();
  for (const auto& [k, a] : accumulators_) {
    w.key(k);
    a.write_json(w);
  }
  w.end_object();
}

void StatRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters");
  write_counters_json(w);
  w.key("accumulators");
  write_accumulators_json(w);
  w.end_object();
}

void StatRegistry::reset() {
  counters_.clear();
  accumulators_.clear();
}

}  // namespace sctm
