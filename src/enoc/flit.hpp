// Flit: the unit of electrical-NoC flow control.
//
// A message is segmented into one head flit (carrying routing state) plus
// body flits and a tail flit. Flits carry only what the datapath needs; the
// owning EnocNetwork keeps the full Message until tail ejection, and the
// injection time stays in the router's staging ring, the one place that
// reads it. That keeps a flit, which every hop copies twice, at 32 bytes.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "noc/message.hpp"

namespace sctm::enoc {

struct Flit {
  MsgId msg = kInvalidMsg;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  noc::MsgClass cls = noc::MsgClass::kRequest;

  std::uint32_t seq = 0;        // flit index within the packet
  bool is_head = false;
  bool is_tail = false;

  /// Dateline subclass (torus/ring VC discipline): 0 before crossing the
  /// wrap link of the current dimension, 1 after. Reset on dimension change.
  std::uint8_t dateline = 0;

  /// VC the flit occupies at its *current* input buffer (set on arrival).
  std::int16_t vc = -1;
};

}  // namespace sctm::enoc
