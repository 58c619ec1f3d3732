#include "enoc/arbiter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hpp"

namespace sctm::enoc {
namespace {

std::vector<std::uint64_t> bits(std::initializer_list<int> set, int width) {
  std::vector<std::uint64_t> v(Arbiter::words_for(width), 0);
  for (const int i : set) v[i >> 6] |= std::uint64_t{1} << (i & 63);
  return v;
}

int grant(Arbiter& a, const std::vector<std::uint64_t>& req) {
  return a.grant(req.data());
}

TEST(RoundRobin, NoRequestsNoGrant) {
  Arbiter a(ArbiterKind::kRoundRobin, 4);
  EXPECT_EQ(grant(a, bits({}, 4)), -1);
}

TEST(RoundRobin, SingleRequesterWins) {
  Arbiter a(ArbiterKind::kRoundRobin, 4);
  EXPECT_EQ(grant(a, bits({2}, 4)), 2);
}

TEST(RoundRobin, RotatesAmongContenders) {
  Arbiter a(ArbiterKind::kRoundRobin, 3);
  const auto all = bits({0, 1, 2}, 3);
  EXPECT_EQ(grant(a, all), 0);
  EXPECT_EQ(grant(a, all), 1);
  EXPECT_EQ(grant(a, all), 2);
  EXPECT_EQ(grant(a, all), 0);
}

TEST(RoundRobin, SkipsIdleRequesters) {
  Arbiter a(ArbiterKind::kRoundRobin, 4);
  EXPECT_EQ(grant(a, bits({1, 3}, 4)), 1);
  EXPECT_EQ(grant(a, bits({1, 3}, 4)), 3);
  EXPECT_EQ(grant(a, bits({1, 3}, 4)), 1);
}

TEST(RoundRobin, FairUnderSaturation) {
  Arbiter a(ArbiterKind::kRoundRobin, 4);
  std::map<int, int> wins;
  const auto all = bits({0, 1, 2, 3}, 4);
  for (int i = 0; i < 400; ++i) wins[grant(a, all)]++;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(wins[i], 100);
}

TEST(Matrix, SingleRequesterWins) {
  Arbiter a(ArbiterKind::kMatrix, 4);
  EXPECT_EQ(grant(a, bits({3}, 4)), 3);
}

TEST(Matrix, LeastRecentlyGrantedWins) {
  Arbiter a(ArbiterKind::kMatrix, 3);
  const auto all = bits({0, 1, 2}, 3);
  EXPECT_EQ(grant(a, all), 0);
  EXPECT_EQ(grant(a, all), 1);
  EXPECT_EQ(grant(a, all), 2);
  EXPECT_EQ(grant(a, all), 0);
}

TEST(Matrix, WinnerDropsBehindNewcomer) {
  Arbiter a(ArbiterKind::kMatrix, 3);
  EXPECT_EQ(grant(a, bits({0}, 3)), 0);
  // 0 just won; against 2 it should now lose.
  EXPECT_EQ(grant(a, bits({0, 2}, 3)), 2);
}

TEST(Matrix, FairUnderSaturation) {
  Arbiter a(ArbiterKind::kMatrix, 4);
  std::map<int, int> wins;
  const auto all = bits({0, 1, 2, 3}, 4);
  for (int i = 0; i < 400; ++i) wins[grant(a, all)]++;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(wins[i], 100);
}

TEST(Matrix, NoRequestsNoGrant) {
  Arbiter a(ArbiterKind::kMatrix, 2);
  EXPECT_EQ(grant(a, bits({}, 2)), -1);
}

// --- Differential test against the std::vector<bool> reference ------------

// Reference arbiters: the loops the router used before requests became
// bitmasks, kept verbatim as the oracle for the mask arbiter.
class RefRoundRobin {
 public:
  explicit RefRoundRobin(int width) : width_(width) {}
  int grant(const std::vector<bool>& requests) {
    for (int off = 0; off < width_; ++off) {
      const int idx = (next_ + off) % width_;
      if (requests[idx]) {
        next_ = (idx + 1) % width_;
        return idx;
      }
    }
    return -1;
  }

 private:
  int width_;
  int next_ = 0;
};

class RefMatrix {
 public:
  explicit RefMatrix(int width)
      : width_(width), prio_(width, std::vector<bool>(width, false)) {
    for (int i = 0; i < width_; ++i) {
      for (int j = i + 1; j < width_; ++j) prio_[i][j] = true;
    }
  }
  int grant(const std::vector<bool>& requests) {
    int winner = -1;
    for (int i = 0; i < width_; ++i) {
      if (!requests[i]) continue;
      bool beaten = false;
      for (int j = 0; j < width_; ++j) {
        if (j != i && requests[j] && prio_[j][i]) {
          beaten = true;
          break;
        }
      }
      if (!beaten) {
        winner = i;
        break;
      }
    }
    if (winner >= 0) {
      for (int j = 0; j < width_; ++j) {
        prio_[winner][j] = false;
        if (j != winner) prio_[j][winner] = true;
      }
    }
    return winner;
  }

 private:
  int width_;
  std::vector<std::vector<bool>> prio_;  // prio_[i][j]: i beats j
};

template <class Ref>
void run_differential(ArbiterKind kind, int width, std::uint64_t seed) {
  Rng rng(seed);
  Arbiter mask(kind, width);
  Ref ref(width);
  std::vector<bool> req(static_cast<std::size_t>(width));
  std::vector<std::uint64_t> words(Arbiter::words_for(width));
  for (int step = 0; step < 2000; ++step) {
    if (rng.next_below(200) == 0) {  // restart both from fresh priority
      mask = Arbiter(kind, width);
      ref = Ref(width);
    }
    // Vary the density so single requesters, sparse sets, full sets and
    // empty sets all occur.
    const auto density = rng.next_below(5);
    std::fill(words.begin(), words.end(), 0);
    for (int i = 0; i < width; ++i) {
      const bool on = density == 4   ? true
                      : density == 0 ? false
                                     : rng.next_below(8) < 2 * density - 1;
      req[static_cast<std::size_t>(i)] = on;
      if (on) {
        words[static_cast<std::size_t>(i) >> 6] |= std::uint64_t{1} << (i & 63);
      }
    }
    ASSERT_EQ(mask.grant(words.data()), ref.grant(req))
        << "width " << width << " step " << step;
  }
}

TEST(ArbiterDifferential, MatchesVectorBoolReferenceAcrossWidths) {
  for (const int width : {1, 3, 5, 20, 63, 64, 65, 130}) {
    const auto seed = static_cast<std::uint64_t>(width) * 7919 + 17;
    run_differential<RefRoundRobin>(ArbiterKind::kRoundRobin, width, seed);
    run_differential<RefMatrix>(ArbiterKind::kMatrix, width, seed);
  }
}

}  // namespace
}  // namespace sctm::enoc
