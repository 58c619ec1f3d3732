#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace sctm {
namespace {

TEST(Histogram, EmptyBehaviour) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, BasicMoments) {
  Histogram h;
  for (const std::uint64_t v : {1, 2, 3, 4, 5}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 5u);
}

TEST(Histogram, MedianOddAndEven) {
  Histogram odd;
  for (const std::uint64_t v : {1, 2, 3, 4, 5}) odd.add(v);
  EXPECT_EQ(odd.percentile(0.5), 3u);

  Histogram even;
  for (const std::uint64_t v : {1, 2, 3, 4}) even.add(v);
  EXPECT_EQ(even.percentile(0.5), 2u);  // smallest v covering half the mass
}

TEST(Histogram, PercentileEdges) {
  Histogram h;
  for (std::uint64_t v = 0; v < 100; ++v) h.add(v);
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(1.0), 99u);
  EXPECT_EQ(h.percentile(0.99), 98u);
}

TEST(Histogram, PercentileEmptyDefinedForAnyQuantile) {
  const Histogram h;
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(1.0), 0u);
  EXPECT_EQ(h.percentile(-2.0), 0u);
  EXPECT_EQ(h.percentile(7.0), 0u);
  EXPECT_EQ(h.percentile(std::numeric_limits<double>::quiet_NaN()), 0u);
}

TEST(Histogram, PercentileSingleSampleIsThatSample) {
  Histogram h;
  h.add(42);
  EXPECT_EQ(h.percentile(0.0), 42u);
  EXPECT_EQ(h.percentile(0.5), 42u);
  EXPECT_EQ(h.percentile(1.0), 42u);
}

TEST(Histogram, PercentileClampsOutOfRangeQuantiles) {
  Histogram h;
  for (const std::uint64_t v : {10, 20, 30}) h.add(v);
  // q <= 0 clamps to the smallest recorded value, q >= 1 to the largest.
  EXPECT_EQ(h.percentile(-0.5), 10u);
  EXPECT_EQ(h.percentile(1.5), 30u);
  EXPECT_EQ(h.percentile(-std::numeric_limits<double>::infinity()), 10u);
  EXPECT_EQ(h.percentile(std::numeric_limits<double>::infinity()), 30u);
}

TEST(Histogram, PercentileNanBehavesLikeZero) {
  Histogram h;
  for (const std::uint64_t v : {10, 20, 30}) h.add(v);
  // NaN must not reach std::clamp (unspecified) or the rank cast (UB).
  EXPECT_EQ(h.percentile(std::numeric_limits<double>::quiet_NaN()), 10u);
}

TEST(Histogram, OverflowRegionExact) {
  Histogram h(/*dense_limit=*/16);
  h.add(10);
  h.add(1000);
  h.add(1000000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), 1000000u);
  EXPECT_EQ(h.percentile(1.0), 1000000u);
  EXPECT_EQ(h.count_at(1000), 1u);
  EXPECT_EQ(h.count_at(999), 0u);
}

TEST(Histogram, PercentilesMatchSortedVector) {
  Rng rng(99);
  Histogram h(64);
  std::vector<std::uint64_t> vals;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.next_below(500);
    h.add(v);
    vals.push_back(v);
  }
  std::sort(vals.begin(), vals.end());
  for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    std::size_t rank = static_cast<std::size_t>(q * vals.size());
    if (static_cast<double>(rank) < q * static_cast<double>(vals.size())) {
      ++rank;
    }
    if (rank == 0) rank = 1;
    EXPECT_EQ(h.percentile(q), vals[rank - 1]) << "q=" << q;
  }
}

}  // namespace
}  // namespace sctm
