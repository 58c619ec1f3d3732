// Centralized barrier: cores send BarArrive to the barrier home node; when
// the last one lands, BarRelease fans out to every core. The release's
// dependency list carries *all* arrival MsgIds of the epoch, so trace replay
// reconstructs the max-of-arrivals semantics exactly.
#pragma once

#include <vector>

#include "fullsys/fabric.hpp"
#include "fullsys/params.hpp"
#include "sim/component.hpp"

namespace sctm::fullsys {

class BarrierManager : public Component {
 public:
  BarrierManager(Simulator& sim, std::string name, NodeId home, int cores,
                 Cycle release_latency, Fabric& fabric);

  void on_arrive(NodeId src, MsgId msg_id);

 private:
  NodeId home_;
  int cores_;
  Cycle release_latency_;
  Fabric& fabric_;
  std::vector<MsgId> arrivals_;
  std::vector<bool> arrived_;
  std::uint64_t& stat_epochs_;
};

}  // namespace sctm::fullsys
