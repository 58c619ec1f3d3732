#include "fullsys/params.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace sctm::fullsys {
namespace {

TEST(FullSysParamsTest, DefaultsValid) {
  FullSysParams p;
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.core_detail, CoreDetail::kFolded);
}

TEST(FullSysParamsTest, ValidationRejectsBadGeometry) {
  FullSysParams p;
  p.l1_sets = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = FullSysParams{};
  p.mem_gap = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(FullSysParamsTest, FromConfigOverrides) {
  const auto cfg = Config::from_string(
      "fullsys.l1_sets = 32\nfullsys.l1_ways = 8\nfullsys.l2_latency = 10\n"
      "fullsys.mem_latency = 200\nfullsys.core_detail = per-cycle\n");
  const auto p = FullSysParams::from_config(cfg);
  EXPECT_EQ(p.l1_sets, 32);
  EXPECT_EQ(p.l1_ways, 8);
  EXPECT_EQ(p.l2_latency, 10u);
  EXPECT_EQ(p.mem_latency, 200u);
  EXPECT_EQ(p.core_detail, CoreDetail::kPerCycle);
}

TEST(FullSysParamsTest, FromConfigRejectsOutOfRangeIntegersNamingTheKey) {
  for (const std::string key :
       {"fullsys.l1_sets = 4294967297", "fullsys.mem_latency = -1",
        "fullsys.barrier_home = 4294967296"}) {
    try {
      (void)FullSysParams::from_config(Config::from_string(key + "\n"));
      ADD_FAILURE() << "accepted: " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key.substr(0, key.find(' '))),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FullSysParamsTest, FromConfigRejectsUnknownDetail) {
  EXPECT_THROW(FullSysParams::from_config(Config::from_string(
                   "fullsys.core_detail = quantum\n")),
               std::invalid_argument);
}

}  // namespace
}  // namespace sctm::fullsys
