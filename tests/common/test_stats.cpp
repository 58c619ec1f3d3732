#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace sctm {
namespace {

/// Two-pass textbook sample variance: sum((x - mean)^2) / (n - 1).
double two_pass_sample_variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  return ss / static_cast<double>(xs.size() - 1);
}

TEST(Accumulator, EmptyIsZero) {
  const Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Accumulator, MeanMinMax) {
  Accumulator a;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) a.add(x);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
}

TEST(Accumulator, VarianceMatchesClosedForm) {
  Accumulator a;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  // Classic example: population sigma^2 = 4; variance() is the *sample*
  // variance (n-1 denominator), so the expectation is 8*4/7 = 32/7.
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(a.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Accumulator, SingleSampleVarianceIsZero) {
  Accumulator a;
  a.add(42.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, VarianceMatchesTwoPassReference) {
  std::vector<double> xs;
  Accumulator a;
  for (int i = 0; i < 257; ++i) {
    // Deterministic but irregular values spanning a few orders of magnitude.
    const double x = (i % 7) * 13.25 + (i % 3) * 0.001 + i * 0.5;
    xs.push_back(x);
    a.add(x);
  }
  const double ref = two_pass_sample_variance(xs);
  EXPECT_NEAR(a.variance(), ref, 1e-9 * ref);
  EXPECT_NEAR(a.stddev(), std::sqrt(ref), 1e-9 * std::sqrt(ref));
}

TEST(Accumulator, MergedVarianceMatchesTwoPassReference) {
  std::vector<double> xs;
  Accumulator left, right;
  for (int i = 0; i < 100; ++i) {
    const double x = 5.0 + (i % 11) * 1.75 - (i % 4) * 0.3;
    xs.push_back(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), xs.size());
  const double ref = two_pass_sample_variance(xs);
  EXPECT_NEAR(left.variance(), ref, 1e-9 * ref);
}

TEST(Accumulator, MergeEqualsSequential) {
  Accumulator a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.73;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(StatRegistry, CounterPersistsAndIncrements) {
  StatRegistry reg;
  auto& c = reg.counter("x.y");
  c += 3;
  EXPECT_EQ(reg.counter_value("x.y"), 3u);
  ++reg.counter("x.y");
  EXPECT_EQ(reg.counter_value("x.y"), 4u);
}

TEST(StatRegistry, ReferencesStableAcrossInsertions) {
  StatRegistry reg;
  auto& a = reg.counter("a");
  for (int i = 0; i < 1000; ++i) {
    std::string name = "k";
    name += std::to_string(i);
    reg.counter(name);
  }
  a = 42;
  EXPECT_EQ(reg.counter_value("a"), 42u);
}

TEST(StatRegistry, MissingCounterReadsZero) {
  const StatRegistry reg;
  EXPECT_EQ(reg.counter_value("ghost"), 0u);
}

TEST(StatRegistry, AccumulatorRegistered) {
  StatRegistry reg;
  reg.accumulator("lat").add(5.0);
  reg.accumulator("lat").add(7.0);
  EXPECT_DOUBLE_EQ(reg.accumulator("lat").mean(), 6.0);
  EXPECT_TRUE(reg.has_accumulator("lat"));
  EXPECT_FALSE(reg.has_accumulator("nope"));
}

TEST(StatRegistry, NamesSortedAndReportNonEmpty) {
  StatRegistry reg;
  reg.counter("b");
  reg.counter("a");
  reg.accumulator("c").add(1);
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(names[2], "c");
  EXPECT_FALSE(reg.report().empty());
}

TEST(StatRegistry, ResetClears) {
  StatRegistry reg;
  reg.counter("a") = 1;
  reg.reset();
  EXPECT_FALSE(reg.has_counter("a"));
}

}  // namespace
}  // namespace sctm
