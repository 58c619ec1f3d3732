#include "fullsys/app.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace sctm::fullsys {
namespace {

AppParams small(const std::string& name) {
  AppParams p;
  p.name = name;
  p.cores = 8;
  p.lines_per_core = 16;
  p.iterations = 2;
  return p;
}

TEST(App, AllNamesBuild) {
  for (const auto& name : app_names()) {
    const auto app = build_app(small(name));
    EXPECT_EQ(app.size(), 8u) << name;
    for (const auto& stream : app) {
      ASSERT_GE(stream.size(), 2u) << name;
      EXPECT_EQ(stream.back().kind, OpKind::kDone) << name;
      EXPECT_EQ(stream[stream.size() - 2].kind, OpKind::kBarrier) << name;
    }
    EXPECT_GT(count_accesses(app), 0u) << name;
  }
}

TEST(App, UnknownNameThrows) {
  EXPECT_THROW(build_app(small("quake")), std::invalid_argument);
}

TEST(App, BadSizesThrow) {
  auto p = small("fft");
  p.cores = 1;
  EXPECT_THROW(build_app(p), std::invalid_argument);
  p = small("fft");
  p.iterations = 0;
  EXPECT_THROW(build_app(p), std::invalid_argument);
}

TEST(App, Deterministic) {
  const auto a = build_app(small("barnes"));
  const auto b = build_app(small("barnes"));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    ASSERT_EQ(a[c].size(), b[c].size());
    for (std::size_t i = 0; i < a[c].size(); ++i) {
      EXPECT_EQ(a[c][i].kind, b[c][i].kind);
      EXPECT_EQ(a[c][i].arg, b[c][i].arg);
    }
  }
}

TEST(App, SeedChangesBarnes) {
  auto p = small("barnes");
  const auto a = build_app(p);
  p.seed = 99;
  const auto b = build_app(p);
  bool differs = false;
  for (std::size_t c = 0; c < a.size() && !differs; ++c) {
    if (a[c].size() != b[c].size()) {
      differs = true;
      break;
    }
    for (std::size_t i = 0; i < a[c].size(); ++i) {
      if (a[c][i].arg != b[c][i].arg) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(App, BarrierCountsMatchAcrossCores) {
  for (const auto& name : app_names()) {
    const auto app = build_app(small(name));
    std::set<std::size_t> counts;
    for (const auto& stream : app) {
      std::size_t n = 0;
      for (const auto& op : stream) {
        if (op.kind == OpKind::kBarrier) ++n;
      }
      counts.insert(n);
    }
    EXPECT_EQ(counts.size(), 1u) << name << ": unequal barrier counts";
  }
}

TEST(App, FftTouchesPartnerLines) {
  auto p = small("fft");
  const auto app = build_app(p);
  // Stage 0 partner of core 0 is core 1: first load of core 0 must be a line
  // homed at node 1 (line % cores == 1).
  const auto& s0 = app[0];
  for (const auto& op : s0) {
    if (op.kind == OpKind::kLoad) {
      EXPECT_EQ(op.arg % 8, 1u);
      break;
    }
  }
}

TEST(App, JacobiOwnBlockHomedLocally) {
  const auto app = build_app(small("jacobi"));
  // Core 2's stores all target lines homed at node 2.
  for (const auto& op : app[2]) {
    if (op.kind == OpKind::kStore) {
      EXPECT_EQ(op.arg % 8, 2u);
    }
  }
}

TEST(App, StreamIsPrivate) {
  const auto app = build_app(small("stream"));
  // Core c only touches lines homed at c (private blocks).
  for (int c = 0; c < 8; ++c) {
    for (const auto& op : app[static_cast<std::size_t>(c)]) {
      if (op.kind == OpKind::kLoad || op.kind == OpKind::kStore) {
        EXPECT_EQ(op.arg % 8, static_cast<std::uint64_t>(c));
      }
    }
  }
}

TEST(App, LuConcentratesReadsOnOwner) {
  const auto app = build_app(small("lu"));
  // In step 0 the owner is core 0; every other core's first loads are lines
  // homed at node 0.
  for (int c = 1; c < 8; ++c) {
    for (const auto& op : app[static_cast<std::size_t>(c)]) {
      if (op.kind == OpKind::kLoad) {
        EXPECT_EQ(op.arg % 8, 0u);
        break;
      }
    }
  }
}

TEST(App, ReduceFanInStructure) {
  const auto app = build_app(small("reduce"));
  // Core 0 (the root) reads partials from cores 1, 2 and 4 across the
  // fan-in levels: its loads include lines homed at those nodes.
  std::set<std::uint64_t> homes;
  for (const auto& op : app[0]) {
    if (op.kind == OpKind::kLoad) homes.insert(op.arg % 8);
  }
  EXPECT_TRUE(homes.count(1));
  EXPECT_TRUE(homes.count(2));
  EXPECT_TRUE(homes.count(4));
  // Every non-root core reads the broadcast result homed at node 0.
  for (int c = 1; c < 8; ++c) {
    bool reads_root = false;
    for (const auto& op : app[static_cast<std::size_t>(c)]) {
      if (op.kind == OpKind::kLoad && op.arg % 8 == 0) reads_root = true;
    }
    EXPECT_TRUE(reads_root) << "core " << c;
  }
}

TEST(App, MoreIterationsMoreAccesses) {
  auto p = small("sort");
  const auto a = count_accesses(build_app(p));
  p.iterations = 4;
  const auto b = count_accesses(build_app(p));
  EXPECT_GT(b, a);
}

}  // namespace
}  // namespace sctm::fullsys
