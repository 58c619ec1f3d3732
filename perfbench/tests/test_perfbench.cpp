// Tests of the benchmark's own arithmetic: sample summaries, metric
// extraction from stat snapshots and phase logs, span self times, and the
// simulated-statistics digest.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

TEST(Summary, MedianAndQuartilesInterpolate) {
  const auto s = summarize({4, 1, 3, 2});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.q1, 1.75);
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
  EXPECT_EQ(s.tail_pct, 0);  // too few samples for any tail
}

TEST(Summary, TailNeedsTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 1; i <= 20; ++i) v.push_back(i);
  EXPECT_EQ(summarize(v).tail_pct, 50);  // 10 samples above the median
  for (int i = 21; i <= 100; ++i) v.push_back(i);
  const auto s = summarize(v);
  EXPECT_EQ(s.tail_pct, 90);  // p95 would leave only 5 above it
  EXPECT_DOUBLE_EQ(s.tail, 90.1);
}

TEST(Summary, RejectsNoSamples) {
  EXPECT_THROW(summarize({}), std::invalid_argument);
}

TEST(Extraction, SumsCountersByLeafName) {
  sctm::StatRegistry stats;
  stats.counter("enoc.r0.xbar_traversals") = 5;
  stats.counter("enoc.r1.xbar_traversals") = 7;
  stats.counter("enoc.r1.sa_grants") = 3;
  stats.counter("enoc.r1.not_xbar_traversals") = 100;  // different leaf
  EXPECT_EQ(sum_counters(stats, "xbar_traversals"), 12u);
  EXPECT_EQ(sum_counters(stats, "sa_grants"), 3u);
  EXPECT_EQ(sum_counters(stats, "va_grants"), 0u);
}

TEST(Extraction, MergesAccumulatorsByLeafName) {
  sctm::StatRegistry stats;
  stats.accumulator("hybrid.op.arb_wait").add(2);
  stats.accumulator("hybrid.op.arb_wait").add(4);
  stats.accumulator("onoc.arb_wait").add(9);
  stats.accumulator("onoc.serialization").add(1000);
  EXPECT_DOUBLE_EQ(merged_mean(stats, "arb_wait"), 5.0);
}

TEST(Extraction, FindsPhasesAndRejectsMissingOnes) {
  const std::vector<sctm::PhaseMetrics> log = {
      {"build", 0.5, 0}, {"execute", 2.0, 4000}, {"finalize_trace", 0.25, 0}};
  EXPECT_DOUBLE_EQ(phase(log, "execute").wall_seconds, 2.0);
  EXPECT_EQ(phase(log, "execute").events, 4000u);
  EXPECT_THROW(phase(log, "encode"), std::runtime_error);
}

TEST(Result, LineCarriesExactlyTheContractKeys) {
  const std::string line =
      result_json(true, 12, 0, {{"load_s", {0.125, "s"}}});
  EXPECT_EQ(line,
            "{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":"
            "{\"load_s\":{\"value\":0.125,\"unit\":\"s\"}}}");
}

SpanRecord span(const char* name, double a, double b, int parent) {
  return {name, a, b, parent, 1};
}

TEST(SelfTime, SubtractsChildren) {
  const std::vector<SpanRecord> s = {span("bench.cycle", 0, 10, -1),
                                     span("core.load", 1, 3, 0),
                                     span("core.replay", 4, 9, 0),
                                     span("core.pass", 5, 6, 2)};
  const auto self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 3);  // 10 - 2 - 5
  EXPECT_DOUBLE_EQ(self[1], 2);
  EXPECT_DOUBLE_EQ(self[2], 4);  // grandchildren are the child's business
  EXPECT_DOUBLE_EQ(self[3], 1);
  const auto by_module = self_by_module(s);
  EXPECT_DOUBLE_EQ(by_module.at("bench"), 3);
  EXPECT_DOUBLE_EQ(by_module.at("core"), 7);
}

TEST(SelfTime, CountsOverlapOnceAndClipsToParent) {
  const std::vector<SpanRecord> s = {span("a.x", 0, 10, -1),
                                     span("b.y", -1, 4, 0),  // clipped to 0..4
                                     span("b.z", 3, 6, 0),   // overlaps 3..4
                                     span("b.w", 8, 12, 0)};  // clipped 8..10
  EXPECT_DOUBLE_EQ(self_times(s)[0], 10 - 6 - 2);
}

TEST(Spans, RecordParentsAndOperationIds) {
  Spans spans;
  spans.set_enabled(true);
  {
    Span a(spans, "bench.cycle");
    Span b(spans, "core.load");
  }
  { Span c(spans, "bench.cycle"); }
  spans.set_enabled(false);
  { Span d(spans, "bench.cycle"); }
  const auto& r = spans.records();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].parent, -1);
  EXPECT_EQ(r[1].parent, 0);
  EXPECT_EQ(r[1].op, r[0].op);
  EXPECT_NE(r[2].op, r[0].op);
  for (const auto& s : r) EXPECT_LE(s.start, s.end);
}

TEST(Digest, StableOrderSensitiveAndBitExact) {
  Digest a;
  a.add(std::uint64_t{45722});
  a.add(82.25);
  a.add("onoc-token");
  Digest b;
  b.add(std::uint64_t{45722});
  b.add(82.25);
  b.add("onoc-token");
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.hex().size(), 16u);

  Digest swapped;
  swapped.add(82.25);
  swapped.add(std::uint64_t{45722});
  swapped.add("onoc-token");
  EXPECT_NE(a.value(), swapped.value());

  Digest nudged;
  nudged.add(std::uint64_t{45722});
  nudged.add(82.25 + 1e-12);
  nudged.add("onoc-token");
  EXPECT_NE(a.value(), nudged.value());

  // Strings are length-prefixed, so boundaries between them count.
  Digest ab, a_b;
  ab.add("ab");
  ab.add("");
  a_b.add("a");
  a_b.add("b");
  EXPECT_NE(ab.value(), a_b.value());
}

}  // namespace
}  // namespace perfbench
