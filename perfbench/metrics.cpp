#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/json.hpp"

namespace perfbench {

namespace {

bool has_leaf(std::string_view name, std::string_view leaf) {
  return name.size() > leaf.size() &&
         name.substr(name.size() - leaf.size()) == leaf &&
         name[name.size() - leaf.size() - 1] == '.';
}

}  // namespace

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no samples");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.median = quantile(samples, 0.5);
  s.q1 = quantile(samples, 0.25);
  s.q3 = quantile(samples, 0.75);
  for (const double pct : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double v = quantile(samples, pct / 100.0);
    const auto beyond = static_cast<std::size_t>(
        samples.end() - std::upper_bound(samples.begin(), samples.end(), v));
    if (beyond >= 10) {
      s.tail_pct = pct;
      s.tail = v;
      break;
    }
  }
  return s;
}

std::uint64_t sum_counters(const sctm::StatRegistry& stats,
                           std::string_view leaf) {
  std::uint64_t total = 0;
  for (const auto& name : stats.names()) {
    if (has_leaf(name, leaf) && stats.has_counter(name)) {
      total += stats.counter_value(name);
    }
  }
  return total;
}

double merged_mean(const sctm::StatRegistry& stats, std::string_view leaf) {
  sctm::StatRegistry copy = stats;  // accumulator() is the only accessor
  sctm::Accumulator merged;
  for (const auto& name : stats.names()) {
    if (has_leaf(name, leaf) && stats.has_accumulator(name)) {
      merged.merge(copy.accumulator(name));
    }
  }
  return merged.mean();
}

const sctm::PhaseMetrics& phase(const std::vector<sctm::PhaseMetrics>& log,
                                std::string_view name) {
  for (const auto& p : log) {
    if (p.name == name) return p;
  }
  throw std::runtime_error("perfbench: run has no phase '" +
                           std::string(name) + "'");
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  h_.update(s.data(), s.size());
}

std::string Digest::hex() const { return sctm::tracestore::hash_hex(value()); }

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics) {
  sctm::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(correct);
  w.key("attempted");
  w.value(attempted);
  w.key("failed");
  w.value(failed);
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, m] : metrics) {
    w.key(name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace perfbench
