#include "onoc/params.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace sctm::onoc {
namespace {

TEST(OnocParams, BandwidthMath) {
  OnocParams p;  // 16 lambda x 10 Gb/s at 2 GHz
  EXPECT_DOUBLE_EQ(p.bytes_per_cycle(), 10.0);
  EXPECT_EQ(p.ser_cycles(0), 1u);
  EXPECT_EQ(p.ser_cycles(10), 1u);
  EXPECT_EQ(p.ser_cycles(11), 2u);
  EXPECT_EQ(p.ser_cycles(4096), 410u);
}

TEST(OnocParams, TofAtLeastOneCycle) {
  OnocParams p;
  EXPECT_EQ(p.tof_cycles(0, 4), 1u);
  EXPECT_GE(p.tof_cycles(6, 4), 1u);
  // Longer paths never take less time.
  EXPECT_LE(p.tof_cycles(1, 4), p.tof_cycles(6, 4));
}

TEST(OnocParams, ValidationRejectsBadValues) {
  OnocParams p;
  p.wavelengths = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = OnocParams{};
  p.eo_latency = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(OnocParams, FromConfigDefaults) {
  const auto p = OnocParams::from_config(Config{});
  EXPECT_EQ(p.wavelengths, 16);
  EXPECT_EQ(p.arbitration, Arbitration::kTokenRing);
  EXPECT_EQ(p.ctrl.vnets, 1);  // control mesh runs one vnet by default
  EXPECT_EQ(p.pool_channels, 8);
}

TEST(OnocParams, FromConfigOverrides) {
  const auto cfg = Config::from_string(
      "onoc.wavelengths = 64\nonoc.gbps_per_wavelength = 20\n"
      "onoc.arbitration = shared-pool\nonoc.pool_channels = 4\n"
      "onoc.eo_latency = 2\nonoc.die_edge_cm = 1.5\n");
  const auto p = OnocParams::from_config(cfg);
  EXPECT_EQ(p.wavelengths, 64);
  EXPECT_DOUBLE_EQ(p.gbps_per_wavelength, 20.0);
  EXPECT_EQ(p.arbitration, Arbitration::kSharedPool);
  EXPECT_EQ(p.pool_channels, 4);
  EXPECT_EQ(p.eo_latency, 2u);
  EXPECT_DOUBLE_EQ(p.die_edge_cm, 1.5);
}

TEST(OnocParams, FromConfigRejectsOutOfRangeIntegersNamingTheKey) {
  for (const std::string key :
       {"onoc.ctrl_vnets = 4294967298", "onoc.eo_latency = -1",
        "onoc.wavelengths = 4294967312", "onoc.ctrl_msg_bytes = -8"}) {
    try {
      (void)OnocParams::from_config(Config::from_string(key + "\n"));
      ADD_FAILURE() << "accepted: " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key.substr(0, key.find(' '))),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(OnocParams, FromConfigRejectsUnknownScheme) {
  EXPECT_THROW(OnocParams::from_config(
                   Config::from_string("onoc.arbitration = semaphore\n")),
               std::invalid_argument);
}

TEST(OnocParams, SchemeNames) {
  EXPECT_STREQ(to_string(Arbitration::kTokenRing), "token-ring");
  EXPECT_STREQ(to_string(Arbitration::kPathSetup), "path-setup");
  EXPECT_STREQ(to_string(Arbitration::kSwmr), "swmr");
  EXPECT_STREQ(to_string(Arbitration::kSharedPool), "shared-pool");
}

/// `text` must fail in OnocParams::from_config, naming `key` and line 1:
/// each value below would otherwise run a wrong simulation.
void expect_rejected(const std::string& text, const std::string& key) {
  try {
    (void)OnocParams::from_config(Config::from_string(text + "\n"));
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key + " (line 1): "),
              std::string::npos)
        << text << ": " << e.what();
  }
}

// NaN passes every `<= 0` check; unchecked, it surfaces mid-run as
// "scheduling into the past".
TEST(OnocParams, NanDoublesAreRejectedNamingTheKey) {
  expect_rejected("onoc.gbps_per_wavelength = nan",
                  "onoc.gbps_per_wavelength");
  expect_rejected("onoc.die_edge_cm = nan", "onoc.die_edge_cm");
  expect_rejected("onoc.clock_ghz = nan", "onoc.clock_ghz");
}

// At 1e-300 Gb/s ser_cycles would cast ~7e301 to Cycle: undefined
// behaviour, which an -O2 build turns into 1 cycle, a run faster than the
// default channel.
TEST(OnocParams, BandwidthTooSmallForCycleIsRejected) {
  expect_rejected("onoc.gbps_per_wavelength = 1e-300",
                  "onoc.gbps_per_wavelength");
  OnocParams p;
  p.gbps_per_wavelength = 1e-300;
  try {
    p.validate();
    FAIL() << "validate() accepted 1e-300 Gb/s";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("onoc.gbps_per_wavelength: ", 0),
              0u)
        << e.what();
  }
  // 0.001 Gb/s still fits: a UINT32_MAX-byte message serializes in range.
  p.gbps_per_wavelength = 0.001;
  EXPECT_NO_THROW(p.validate());
}

TEST(OnocParams, InfiniteClockIsRejected) {
  expect_rejected("onoc.clock_ghz = inf", "onoc.clock_ghz");
}

// Unchecked, a non-positive die edge runs exactly like the default 2 cm die.
TEST(OnocParams, NonPositiveDieEdgeIsRejected) {
  expect_rejected("onoc.die_edge_cm = 0", "onoc.die_edge_cm");
  expect_rejected("onoc.die_edge_cm = -2", "onoc.die_edge_cm");
}

// So does a die whose crossing overflows Cycle.
TEST(OnocParams, DieTooLargeForCycleIsRejected) {
  expect_rejected("onoc.die_edge_cm = 1e300", "onoc.die_edge_cm");
}

TEST(OnocParams, ValidateNamesTheKey) {
  OnocParams p;
  p.clock_ghz = 0;
  try {
    p.validate();
    FAIL() << "validate() accepted a 0 GHz clock";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "onoc.clock_ghz: must be > 0");
  }
}

}  // namespace
}  // namespace sctm::onoc
