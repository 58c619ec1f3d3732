#include "enoc/params.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>

namespace sctm::enoc {
namespace {

TEST(EnocParams, DefaultsAreValid) {
  EnocParams p;
  EXPECT_NO_THROW(p.validate(false));
  EXPECT_NO_THROW(p.validate(true));  // 2 VCs/vnet split into dateline halves
  EXPECT_EQ(p.total_vcs(), 4);
}

TEST(EnocParams, FlitSegmentation) {
  EnocParams p;  // 16 B flits, 8 B header
  EXPECT_EQ(p.flits_for(0), 1u);
  EXPECT_EQ(p.flits_for(8), 1u);
  EXPECT_EQ(p.flits_for(9), 2u);
  EXPECT_EQ(p.flits_for(64), 5u);
  EXPECT_EQ(p.flits_for(4096), 257u);
}

TEST(EnocParams, ValidationRejectsBadValues) {
  EnocParams p;
  p.buffer_depth = 0;
  EXPECT_THROW(p.validate(false), std::invalid_argument);
  p = EnocParams{};
  p.link_latency = 0;
  EXPECT_THROW(p.validate(false), std::invalid_argument);
  p = EnocParams{};
  p.vcs_per_vnet = 3;
  EXPECT_NO_THROW(p.validate(false));
  EXPECT_THROW(p.validate(true), std::invalid_argument);  // dateline needs even
}

// Flit::vc and the outbox VC are int16_t and a VC buffer's ring cursors are
// 16-bit, so VC counts and buffer depths beyond those are rejected.
TEST(EnocParams, ValidationRejectsWhatTheDatapathCannotHold) {
  EnocParams p;
  p.vcs_per_vnet = 20000;  // 40,000 VCs per port
  EXPECT_THROW(p.validate(false), std::invalid_argument);
  p.vnets = 1;
  p.vcs_per_vnet = EnocParams::kMaxVcs;
  EXPECT_NO_THROW(p.validate(false));
  p.vcs_per_vnet = EnocParams::kMaxVcs + 1;
  EXPECT_THROW(p.validate(false), std::invalid_argument);
  p = EnocParams{};
  p.buffer_depth = EnocParams::kMaxBufferDepth;
  EXPECT_NO_THROW(p.validate(false));
  p.buffer_depth = EnocParams::kMaxBufferDepth + 1;
  EXPECT_THROW(p.validate(false), std::invalid_argument);
}

// The error names the offending key, and a 64-bit value is never narrowed
// into range.
TEST(EnocParams, FromConfigRejectsOutOfRangeValuesNamingTheKey) {
  const auto expect_rejects = [](const std::string& text,
                                 const std::string& key) {
    try {
      (void)EnocParams::from_config(Config::from_string(text));
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  };
  expect_rejects("enoc.vcs_per_vnet = 4294967298\n", "enoc.vcs_per_vnet");
  expect_rejects("enoc.vcs_per_vnet = 20000\n", "enoc.vcs_per_vnet");
  expect_rejects("enoc.vnets = 0\n", "enoc.vnets");
  expect_rejects("enoc.buffer_depth = 65536\n", "enoc.buffer_depth");
  expect_rejects("enoc.buffer_depth = -1\n", "enoc.buffer_depth");
  expect_rejects("enoc.flit_bytes = 4294967312\n", "enoc.flit_bytes");
  expect_rejects("enoc.head_bytes = -8\n", "enoc.head_bytes");
  expect_rejects("enoc.link_latency = -1\n", "enoc.link_latency");
  expect_rejects("enoc.credit_latency = 0\n", "enoc.credit_latency");
}

TEST(EnocParams, FromConfigDefaults) {
  const auto p = EnocParams::from_config(Config{});
  EXPECT_EQ(p.vnets, 2);
  EXPECT_EQ(p.vcs_per_vnet, 2);
  // Unset: the routing table resolves the fabric's natural algorithm.
  EXPECT_EQ(p.routing, std::nullopt);
  EXPECT_EQ(p.arbiter, ArbiterKind::kRoundRobin);
  EXPECT_FALSE(p.adaptive);
}

TEST(EnocParams, FromConfigOverrides) {
  const auto cfg = Config::from_string(
      "enoc.vnets = 1\nenoc.vcs_per_vnet = 4\nenoc.buffer_depth = 8\n"
      "enoc.flit_bytes = 32\nenoc.link_latency = 2\n"
      "enoc.routing = odd-even\nenoc.adaptive = true\n"
      "enoc.arbiter = matrix\n");
  const auto p = EnocParams::from_config(cfg);
  EXPECT_EQ(p.vnets, 1);
  EXPECT_EQ(p.vcs_per_vnet, 4);
  EXPECT_EQ(p.buffer_depth, 8);
  EXPECT_EQ(p.flit_bytes, 32u);
  EXPECT_EQ(p.link_latency, 2u);
  EXPECT_EQ(p.routing, noc::RoutingAlgo::kOddEven);
  EXPECT_TRUE(p.adaptive);
  EXPECT_EQ(p.arbiter, ArbiterKind::kMatrix);
}

TEST(EnocParams, FromConfigRejectsUnknownNames) {
  EXPECT_THROW(
      EnocParams::from_config(Config::from_string("enoc.routing = spiral\n")),
      std::invalid_argument);
  EXPECT_THROW(
      EnocParams::from_config(Config::from_string("enoc.arbiter = coin\n")),
      std::invalid_argument);
}

}  // namespace
}  // namespace sctm::enoc
