#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace sctm {
namespace {

TEST(EventQueue, EmptyState) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kNoCycle);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, InterleavedPushPopKeepsStability) {
  EventQueue q;
  std::vector<int> order;
  q.push(1, [&] { order.push_back(0); });
  q.push(2, [&] { order.push_back(1); });
  q.pop().fn();
  q.push(2, [&] { order.push_back(2); });
  q.push(2, [&] { order.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, NextTimeTracksHead) {
  EventQueue q;
  q.push(7, [] {});
  q.push(3, [] {});
  EXPECT_EQ(q.next_time(), 3u);
  q.pop();
  EXPECT_EQ(q.next_time(), 7u);
}

TEST(EventQueue, ClearEmpties) {
  EventQueue q;
  q.push(1, [] {});
  q.push(2, [] {});
  q.push(EventQueue::kWheelSize + 5, [] {});  // far heap
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNoCycle);
  EXPECT_EQ(q.total_pushed(), 0u);
}

TEST(EventQueue, TotalPushedCounts) {
  EventQueue q;
  EXPECT_EQ(q.total_pushed(), 0u);
  q.push(1, [] {});
  q.push(1, [] {});
  q.pop();
  EXPECT_EQ(q.total_pushed(), 2u);
}

// ---------------------------------------------------------------------------
// Two-level structure properties: the wheel/far-heap split must be invisible.
// ---------------------------------------------------------------------------

constexpr Cycle kHorizon = EventQueue::kWheelSize;

TEST(EventQueue, FifoTieAcrossWheelHeapBoundary) {
  // First push to cycle T lands beyond the horizon (far heap); after the
  // window slides past T - kWheelSize, later pushes to the same T land in
  // the wheel. FIFO among the tie must still hold: far entries were pushed
  // first, so they run first.
  EventQueue q;
  const Cycle kT = 100;
  std::vector<int> order;
  q.push(kT, [&] { order.push_back(0); });  // far: 100 >= horizon 64
  q.push(50, [&] { order.push_back(-1); });
  auto p = q.pop();  // services cycle 50, sliding the window to [50, 114)
  p.fn();
  EXPECT_EQ(p.time, 50u);
  q.push(kT, [&] { order.push_back(1); });  // wheel entry for the same cycle
  q.push(kT, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto e = q.pop();
    EXPECT_EQ(e.time, kT);
    e.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(EventQueue, LateBandRunsAfterNormalWithinCycle) {
  EventQueue q;
  std::vector<int> order;
  q.push(5, [&] { order.push_back(10); }, EventQueue::kLate);
  q.push(5, [&] { order.push_back(0); });
  q.push(5, [&] { order.push_back(11); }, EventQueue::kLate);
  q.push(5, [&] { order.push_back(1); });
  q.push(6, [&] { order.push_back(20); }, EventQueue::kLate);
  q.push(6, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 2, 20}));
}

TEST(EventQueue, LateBandOrderHoldsAcrossWheelHeapBoundary) {
  // A far-heap late event still runs after a wheel normal event of the same
  // cycle, even though its sequence number is smaller: band outranks seq.
  EventQueue q;
  const Cycle kT = 200;
  std::vector<int> order;
  q.push(kT, [&] { order.push_back(9); }, EventQueue::kLate);  // far
  q.push(150, [&] { order.push_back(0); });
  q.pop().fn();                             // window now [150, 214)
  q.push(kT, [&] { order.push_back(1); });  // wheel, normal band, larger seq
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 9}));
}

TEST(EventQueue, WheelWrapAroundAtHorizonEdges) {
  // Cycles c and c + kWheelSize share a bucket index; the far heap must keep
  // them separated until the window reaches each.
  EventQueue q;
  std::vector<Cycle> popped;
  for (const Cycle t : {kHorizon - 1, Cycle{0}, 2 * kHorizon - 1, kHorizon,
                        3 * kHorizon}) {
    q.push(t, [] {});
  }
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, (std::vector<Cycle>{0, kHorizon - 1, kHorizon,
                                        2 * kHorizon - 1, 3 * kHorizon}));
}

TEST(EventQueue, HorizonBoundaryPushLandsInFarHeapThenMigrates) {
  EventQueue q;
  std::vector<Cycle> popped;
  q.push(kHorizon, [] {});      // exactly one past the window [0, 64)
  q.push(kHorizon - 1, [] {});  // last wheel slot
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, (std::vector<Cycle>{kHorizon - 1, kHorizon}));
}

TEST(EventQueue, PushBehindWindowStillExecutesInOrder) {
  // The standalone queue (no Simulator in front) accepts pushes behind an
  // already-serviced cycle; they take the far-heap path and still pop in
  // global (time, band, seq) order.
  EventQueue q;
  q.push(90, [] {});
  auto p = q.pop();  // window slides to 90
  EXPECT_EQ(p.time, 90u);
  q.push(10, [] {});
  q.push(5, [] {});
  q.push(91, [] {});
  EXPECT_EQ(q.pop().time, 5u);
  EXPECT_EQ(q.pop().time, 10u);
  EXPECT_EQ(q.pop().time, 91u);
}

TEST(EventQueue, DrainCycleRunsWholeCycleIncludingSameCycleAppends) {
  EventQueue q;
  std::vector<int> order;
  bool stop = false;
  q.push(4, [&] {
    order.push_back(0);
    // Same-cycle append during the drain: runs later this cycle, before the
    // late band.
    q.push(4, [&] { order.push_back(2); });
  });
  q.push(4, [&] { order.push_back(1); });
  q.push(4, [&] { order.push_back(3); }, EventQueue::kLate);
  q.push(5, [&] { order.push_back(4); });
  const auto n = q.drain_cycle(4, stop);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 5u);
}

TEST(EventQueue, DrainCycleRechecksNormalBandBeforeEachLateEvent) {
  // A late event scheduling a same-cycle normal event: the normal band runs
  // first again before the remaining late events — the exact order the old
  // per-event heap produced from its (time, band, seq) comparator.
  EventQueue q;
  std::vector<int> order;
  bool stop = false;
  q.push(7, [&] { order.push_back(0); });
  q.push(7, [&] {
    order.push_back(10);
    q.push(7, [&] { order.push_back(1); });
  }, EventQueue::kLate);
  q.push(7, [&] { order.push_back(11); }, EventQueue::kLate);
  q.drain_cycle(7, stop);
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 11}));
}

TEST(EventQueue, DrainCycleStopsMidCycleAndLeavesRemainder) {
  EventQueue q;
  std::vector<int> order;
  bool stop = false;
  q.push(3, [&] { order.push_back(0); });
  q.push(3, [&] {
    order.push_back(1);
    stop = true;
  });
  q.push(3, [&] { order.push_back(2); });
  const auto n = q.drain_cycle(3, stop);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 3u);
  stop = false;
  EXPECT_EQ(q.drain_cycle(3, stop), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(q.empty());
}

// Reference model: the original single std::priority_queue keyed on
// (time, band, seq). The two-level queue must be observationally identical.
struct RefModel {
  struct Entry {
    Cycle time;
    int band;
    std::uint64_t seq;
  };
  std::vector<Entry> entries;
  std::uint64_t next_seq = 0;

  void push(Cycle t, int band) { entries.push_back({t, band, next_seq++}); }
  Entry pop() {
    auto best = entries.begin();
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->time != best->time ? it->time < best->time
          : it->band != best->band ? it->band < best->band
                                   : it->seq < best->seq) {
        best = it;
      }
    }
    Entry out = *best;
    entries.erase(best);
    return out;
  }
};

TEST(EventQueue, RandomizedEquivalenceWithReferenceModel) {
  // Drive the real queue and the reference model with an identical random
  // schedule — bursty same-cycle batches, near/far mixtures, interleaved
  // pops — and require the exact same (time, seq) pop sequence.
  Rng rng(1234);
  EventQueue q;
  RefModel ref;
  std::vector<std::uint64_t> popped_seq;
  Cycle now = 0;

  for (int round = 0; round < 2000; ++round) {
    const auto n_push = rng.next_below(4);
    for (std::uint64_t i = 0; i < n_push; ++i) {
      // Mix: mostly near-future (same cycle / within the wheel), a tail of
      // far-future beyond the horizon, crossing wrap boundaries.
      const auto r = rng.next_below(100);
      Cycle dt;
      if (r < 40) {
        dt = 0;
      } else if (r < 80) {
        dt = rng.next_below(kHorizon);
      } else {
        dt = kHorizon - 2 + rng.next_below(3 * kHorizon);
      }
      const int band = rng.next_below(5) == 0 ? EventQueue::kLate
                                              : EventQueue::kNormal;
      const std::uint64_t seq = ref.next_seq;
      ref.push(now + dt, band);
      const auto got = q.push(
          now + dt, [seq, &popped_seq] { popped_seq.push_back(seq); },
          static_cast<EventQueue::Band>(band));
      ASSERT_EQ(got, seq);
    }
    const auto n_pop = rng.next_below(4);
    for (std::uint64_t i = 0; i < n_pop && !q.empty(); ++i) {
      auto real = q.pop();
      const auto expect = ref.pop();
      ASSERT_EQ(real.time, expect.time) << "round " << round;
      real.fn();
      ASSERT_EQ(popped_seq.back(), expect.seq) << "round " << round;
      ASSERT_GE(real.time, now);
      now = real.time;
    }
    ASSERT_EQ(q.size(), ref.entries.size());
    ASSERT_EQ(q.empty(), ref.entries.empty());
    if (!q.empty()) {
      auto ref_next = ref.entries.front().time;
      for (const auto& e : ref.entries) ref_next = std::min(ref_next, e.time);
      ASSERT_EQ(q.next_time(), ref_next);
    }
  }
  // Drain the rest.
  while (!q.empty()) {
    auto real = q.pop();
    const auto expect = ref.pop();
    ASSERT_EQ(real.time, expect.time);
    real.fn();
    ASSERT_EQ(popped_seq.back(), expect.seq);
  }
}

}  // namespace
}  // namespace sctm
