// Streaming statistics and a named-stat registry.
//
// Components register counters and accumulators under dotted names
// ("enoc.router.3.flits_routed"); the registry snapshots into report tables.
// Accumulator uses Welford's algorithm so variance is numerically stable over
// billions of samples.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sctm {

class JsonWriter;

/// Streaming mean/variance/min/max over double samples.
class Accumulator {
 public:
  void add(double x);
  void merge(const Accumulator& other);

  std::uint64_t count() const { return n_; }
  double sum() const { return mean_ * static_cast<double>(n_); }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// *Sample* variance (Bessel-corrected, divides by n-1); 0 with fewer than
  /// 2 samples. The registry's accumulators hold samples of an underlying
  /// process (latencies, queue waits), so `sd=` in reports is the sample
  /// statistic an experimenter would compute from the same data — dividing
  /// by n would systematically understate spread for small n.
  double variance() const;
  /// Sample standard deviation, sqrt(variance()).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Emits {"n":..,"mean":..,"min":..,"max":..,"stddev":..} as the writer's
  /// next value.
  void write_json(JsonWriter& w) const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Registry of named counters and accumulators. Not thread-safe by design:
/// the simulation kernel is single-threaded; benches aggregate across runs by
/// snapshotting.
class StatRegistry {
 public:
  /// Returns the counter registered under `name`, creating it at zero.
  std::uint64_t& counter(std::string_view name);

  /// Returns the accumulator registered under `name`, creating it empty.
  Accumulator& accumulator(std::string_view name);

  bool has_counter(std::string_view name) const;
  bool has_accumulator(std::string_view name) const;

  /// Value of a counter; 0 when absent.
  std::uint64_t counter_value(std::string_view name) const;

  /// All registered names (counters then accumulators), sorted.
  std::vector<std::string> names() const;

  /// Human-readable dump, one stat per line, sorted by name.
  std::string report() const;

  /// Emits {"counters": {...}, "accumulators": {...}} as the writer's next
  /// value (names sorted — std::map order).
  void write_json(JsonWriter& w) const;

  /// Finer-grained emitters for callers composing a larger "stats" object:
  /// each writes one {"name": value} object as the writer's next value.
  void write_counters_json(JsonWriter& w) const;
  void write_accumulators_json(JsonWriter& w) const;

  /// Erases every entry. Only safe when no component still holds a reference
  /// returned by counter()/accumulator() — i.e. when the components are being
  /// rebuilt too (Simulator::reset()).
  void reset();

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, Accumulator, std::less<>> accumulators_;
};

}  // namespace sctm
