// CMP substrate configuration.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/units.hpp"

namespace sctm::fullsys {

/// Front-end simulation granularity. Timing results are identical across
/// modes (the same cycle-level schedule); only the *cost* of the
/// execution-driven simulation changes — kPerCycle approximates an
/// instruction-interpreting front end (Simics/GEMS class), which is what
/// makes trace-driven exploration economically interesting (R-F3).
enum class CoreDetail {
  kFolded,    // fold compute+hit chains into single events (fast, default)
  kPerCycle,  // one kernel event per compute cycle (instruction-level cost)
};

struct FullSysParams {
  // Private L1 per core (line = 64 B): 64 sets x 4 ways = 16 KiB.
  int l1_sets = 64;
  int l1_ways = 4;
  // Shared L2, one bank per node: 256 sets x 8 ways = 128 KiB per bank.
  int l2_sets = 256;
  int l2_ways = 8;

  Cycle l1_hit_latency = 2;
  Cycle l1_miss_detect = 1;  // added before the request leaves the core
  Cycle l2_latency = 6;      // bank access/processing
  Cycle dir_latency = 2;     // directory-only decisions (acks, invalidates)
  Cycle fill_latency = 1;    // L1 fill after reply arrival
  Cycle mem_latency = 120;   // DRAM access
  Cycle mem_gap = 4;         // memory controller service interval

  /// Memory-controller nodes; empty = corners of the fabric (set by
  /// CmpSystem from the topology).
  std::vector<NodeId> mc_nodes;
  NodeId barrier_home = 0;
  CoreDetail core_detail = CoreDetail::kFolded;

  void validate() const;

  /// Reads "fullsys.*" keys with these defaults.
  static FullSysParams from_config(const Config& cfg);
};

}  // namespace sctm::fullsys
