#include "fullsys/params.hpp"

#include <stdexcept>

namespace sctm::fullsys {
namespace {

constexpr Spelling<CoreDetail> kCoreDetailNames[] = {
    {CoreDetail::kFolded, "folded"},
    {CoreDetail::kPerOp, "per-op"},
    {CoreDetail::kPerCycle, "per-cycle"},
};

}  // namespace

void FullSysParams::validate() const {
  if (l1_sets < 1 || l1_ways < 1 || l2_sets < 1 || l2_ways < 1) {
    throw std::invalid_argument("FullSysParams: non-positive cache geometry");
  }
  if (mem_gap < 1) {
    throw std::invalid_argument("FullSysParams: mem_gap must be >= 1");
  }
}

FullSysParams FullSysParams::from_config(const Config& cfg) {
  FullSysParams p;
  p.l1_sets = cfg.get_as("fullsys.l1_sets", p.l1_sets);
  p.l1_ways = cfg.get_as("fullsys.l1_ways", p.l1_ways);
  p.l2_sets = cfg.get_as("fullsys.l2_sets", p.l2_sets);
  p.l2_ways = cfg.get_as("fullsys.l2_ways", p.l2_ways);
  p.l1_hit_latency = cfg.get_as("fullsys.l1_hit_latency", p.l1_hit_latency);
  p.l1_miss_detect = cfg.get_as("fullsys.l1_miss_detect", p.l1_miss_detect);
  p.l2_latency = cfg.get_as("fullsys.l2_latency", p.l2_latency);
  p.dir_latency = cfg.get_as("fullsys.dir_latency", p.dir_latency);
  p.fill_latency = cfg.get_as("fullsys.fill_latency", p.fill_latency);
  p.mem_latency = cfg.get_as("fullsys.mem_latency", p.mem_latency);
  p.mem_gap = cfg.get_as("fullsys.mem_gap", p.mem_gap);
  p.barrier_home = cfg.get_as("fullsys.barrier_home", p.barrier_home);
  p.core_detail = cfg.get_enum("fullsys.core_detail", kCoreDetailNames)
                      .value_or(p.core_detail);
  return p;
}

}  // namespace sctm::fullsys
