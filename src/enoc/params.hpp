// Electrical NoC configuration.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "common/config.hpp"
#include "common/units.hpp"
#include "enoc/arbiter.hpp"
#include "noc/routing.hpp"

namespace sctm::enoc {

struct EnocParams {
  /// Datapath limits: a VC index must fit Flit::vc (int16_t), and a VC
  /// buffer's ring cursors are 16-bit.
  static constexpr int kMaxVcs = std::numeric_limits<std::int16_t>::max();
  static constexpr int kMaxBufferDepth =
      std::numeric_limits<std::uint16_t>::max();

  /// Virtual networks (message-class partitions for protocol deadlock
  /// avoidance): requests/control on vnet 0, replies/data on vnet 1.
  int vnets = 2;
  /// VCs per vnet per port. Must be even on torus/ring (dateline halves).
  int vcs_per_vnet = 2;
  /// Buffer depth per VC, in flits.
  int buffer_depth = 4;
  /// Flit width in bytes (link phit width).
  std::uint32_t flit_bytes = 16;
  /// Packet header overhead added to the payload before segmentation.
  std::uint32_t head_bytes = 8;
  Cycle link_latency = 1;
  Cycle credit_latency = 1;
  /// Unset = the fabric's natural algorithm, resolved where routes are built
  /// (noc::RoutingTable); read the network's routes().algo() for the
  /// algorithm in use.
  std::optional<noc::RoutingAlgo> routing;
  /// Adaptive output-port selection among routing candidates by free credits.
  bool adaptive = false;
  ArbiterKind arbiter = ArbiterKind::kRoundRobin;

  /// Memberwise equality: two parameter sets are interchangeable iff all
  /// fields match.
  bool operator==(const EnocParams&) const = default;

  int total_vcs() const { return vnets * vcs_per_vnet; }

  /// Flits for a message of `payload` bytes (>=1; header piggybacks).
  /// Computed in 64 bits: a payload near 4 GiB plus the header would wrap a
  /// 32-bit sum.
  std::uint64_t flits_for(std::uint32_t payload) const {
    const std::uint64_t bytes = std::uint64_t{payload} + head_bytes;
    return bytes == 0 ? 1 : (bytes + flit_bytes - 1) / flit_bytes;
  }

  /// Throws std::invalid_argument naming the offending "enoc.*" key when a
  /// value is out of range or the datapath cannot hold it. `source`, when
  /// given, is the config the values were read from, and the error then also
  /// names the key's line.
  void validate(bool needs_dateline, const Config* source = nullptr) const;

  /// Reads "enoc.*" keys with these defaults and validates the result
  /// (without the dateline check, which depends on the topology). A value
  /// that does not fit its field is rejected, never narrowed.
  static EnocParams from_config(const Config& cfg);
};

}  // namespace sctm::enoc
