#include "onoc/token.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace sctm::onoc {
namespace {

TEST(TokenRing, GrantImmediateWhenTokenAtRequester) {
  TokenRing ring(8, 1);
  // Token starts at node 0.
  EXPECT_EQ(ring.acquire(0, 0, 10), 0u);
}

TEST(TokenRing, WaitsForTokenToTravel) {
  TokenRing ring(8, 1);
  // Token at 0, requester at 5 -> 5 hops.
  EXPECT_EQ(ring.acquire(5, 0, 10), 5u);
}

TEST(TokenRing, HopLatencyScalesWait) {
  TokenRing ring(8, 4);
  EXPECT_EQ(ring.acquire(5, 0, 10), 20u);
}

TEST(TokenRing, ChannelHoldDelaysNextGrant) {
  TokenRing ring(8, 1);
  const Cycle g1 = ring.acquire(0, 0, 100);  // holds [0, 100)
  EXPECT_EQ(g1, 0u);
  // Node 1 requests at t=10: token frees at 100 at pos 0... then 1 hop.
  EXPECT_EQ(ring.acquire(1, 10, 5), 101u);
}

TEST(TokenRing, TokenRotatesWhileIdle) {
  TokenRing ring(8, 1);
  (void)ring.acquire(0, 0, 4);  // free at 4, pos 0
  // At t=10 the token has idled 6 cycles -> position 6.
  EXPECT_EQ(ring.position_at(10), 6);
  // Requester 6 at t=10 gets it instantly.
  EXPECT_EQ(ring.acquire(6, 10, 1), 10u);
}

TEST(TokenRing, WrapAroundDistance) {
  TokenRing ring(8, 1);
  (void)ring.acquire(5, 0, 1);  // grant at 5, free at 6, pos 5
  // Node 3 at t=6: distance (3-5) mod 8 = 6.
  EXPECT_EQ(ring.acquire(3, 6, 1), 12u);
}

TEST(TokenRing, SequentialRequestsSerialize) {
  TokenRing ring(4, 1);
  const Cycle g1 = ring.acquire(1, 0, 10);
  const Cycle g2 = ring.acquire(2, 0, 10);
  const Cycle g3 = ring.acquire(3, 0, 10);
  EXPECT_EQ(g1, 1u);
  EXPECT_EQ(g2, g1 + 10 + 1);  // one hop 1->2 after hold
  EXPECT_EQ(g3, g2 + 10 + 1);
  EXPECT_EQ(ring.grants(), 3u);
}

TEST(TokenRing, OutOfOrderCallThrows) {
  TokenRing ring(4, 1);
  (void)ring.acquire(1, 10, 1);
  EXPECT_THROW(ring.acquire(2, 5, 1), std::logic_error);
}

TEST(TokenRing, InvalidArgsThrow) {
  EXPECT_THROW(TokenRing(0, 1), std::invalid_argument);
  EXPECT_THROW(TokenRing(4, 0), std::invalid_argument);
  TokenRing ring(4, 1);
  EXPECT_THROW(ring.acquire(4, 0, 1), std::invalid_argument);
  EXPECT_THROW(ring.acquire(-1, 0, 1), std::invalid_argument);
}

TEST(TokenRing, GrantNeverBeforeRequest) {
  TokenRing ring(16, 2);
  Cycle t = 0;
  for (int i = 0; i < 100; ++i) {
    const NodeId s = (i * 7) % 16;
    const Cycle g = ring.acquire(s, t, 3);
    EXPECT_GE(g, t);
    t += 5;
  }
}

// --- Property tests --------------------------------------------------------

// Naive O(n)-scan reference for TokenRing::acquire: instead of the analytic
// position/distance arithmetic, step the idle token one hop at a time from
// the channel-free instant until it reaches the requester. Any divergence
// between the closed form and this literal walk is a modelling bug.
struct NaiveRing {
  int nodes;
  Cycle hop;
  NodeId pos = 0;
  Cycle free_at = 0;

  Cycle acquire(NodeId s, Cycle t, Cycle hold) {
    const Cycle t0 = t > free_at ? t : free_at;
    // Walk the idle rotation up to t0 (whole hops only)...
    Cycle clock = free_at;
    NodeId p = pos;
    while (clock + hop <= t0) {
      clock += hop;
      p = static_cast<NodeId>((p + 1) % nodes);
    }
    // ...then keep walking until the token is at the requester.
    Cycle grant = t0;
    while (p != s) {
      grant += hop;
      p = static_cast<NodeId>((p + 1) % nodes);
    }
    pos = s;
    free_at = grant + hold;
    return grant;
  }
};

/// One randomized acquire request: requester, non-decreasing time, hold.
struct Req {
  NodeId s;
  Cycle t;
  Cycle hold;
};

std::vector<Req> random_sequence(Rng& rng, int nodes, int len) {
  std::vector<Req> seq;
  seq.reserve(static_cast<std::size_t>(len));
  Cycle t = 0;
  for (int i = 0; i < len; ++i) {
    t += static_cast<Cycle>(rng.next_below(9));  // gaps of 0..8 (repeats too)
    seq.push_back({static_cast<NodeId>(rng.next_below(
                       static_cast<std::uint64_t>(nodes))),
                   t, static_cast<Cycle>(rng.next_range(1, 12))});
  }
  return seq;
}

// Differential property: for randomized request sequences across ring sizes
// and hop latencies, the analytic acquire must grant exactly what the naive
// token-walk reference grants, request by request.
TEST(TokenRingProperty, RandomizedSequencesMatchNaiveReference) {
  Rng rng(0x70c37);
  for (const int nodes : {1, 2, 3, 8, 16, 61}) {
    for (const Cycle hop : {Cycle{1}, Cycle{2}, Cycle{7}}) {
      TokenRing ring(nodes, hop);
      NaiveRing naive{nodes, hop};
      const auto seq = random_sequence(rng, nodes, 300);
      for (std::size_t i = 0; i < seq.size(); ++i) {
        const Cycle got = ring.acquire(seq[i].s, seq[i].t, seq[i].hold);
        const Cycle want = naive.acquire(seq[i].s, seq[i].t, seq[i].hold);
        ASSERT_EQ(got, want) << "nodes=" << nodes << " hop=" << hop
                             << " req=" << i << " s=" << seq[i].s
                             << " t=" << seq[i].t << " hold=" << seq[i].hold;
        ASSERT_EQ(ring.free_at(), naive.free_at) << "req " << i;
      }
    }
  }
}

}  // namespace
}  // namespace sctm::onoc
