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

}  // namespace
}  // namespace sctm::onoc
