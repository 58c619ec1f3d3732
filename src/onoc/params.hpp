// Optical NoC configuration.
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/units.hpp"
#include "onoc/devices.hpp"

namespace sctm::onoc {

/// Channel organization / arbitration scheme of the data plane. A NetKind
/// names it (core::optical_organization) and the network takes it at
/// construction; it is not a parameter of OnocParams.
enum class Arbitration {
  kTokenRing,  // MWSR: Corona-style circulating token per receiver channel
  kPathSetup,  // MWSR: circuit setup/grant over an electrical control mesh
  kSwmr,       // SWMR: every *source* owns a channel (Firefly-style); no
               // inter-node arbitration, only head-of-line at the source.
               // Receivers are modeled contention-free (broadband drop
               // filters), the scheme's optimistic assumption.
  kSharedPool, // FlexiShare-style: a pool of channels shared by all pairs
               // (its size is a constructor argument of the network); a
               // transfer takes the earliest-free channel after a token
               // round of arbitration. Trades channel count (rings, laser
               // power) against queueing. No NetKind names it: R-E3 builds
               // it directly.
};

struct OnocParams {
  int wavelengths = 16;
  double gbps_per_wavelength = 10.0;
  double clock_ghz = 2.0;

  Cycle eo_latency = 1;   // electrical->optical conversion
  Cycle oe_latency = 1;   // optical->electrical conversion
  Cycle guard_cycles = 1; // channel guard band between transmissions
  Cycle token_hop_latency = 1;

  double die_edge_cm = 2.0;
  MicroringParams ring;
  WaveguideParams waveguide;
  PhotodetectorParams detector;
  LaserParams laser;

  /// Control-message payload for path setup/grant (bytes).
  std::uint32_t ctrl_msg_bytes = 8;

  bool operator==(const OnocParams&) const = default;

  /// Channel bandwidth in bytes per core cycle.
  double bytes_per_cycle() const {
    return static_cast<double>(wavelengths) * gbps_per_wavelength /
           (8.0 * clock_ghz);
  }

  /// Serialization time of a message (>= 1 cycle).
  Cycle ser_cycles(std::uint32_t bytes) const {
    const double c = static_cast<double>(bytes) / bytes_per_cycle();
    auto out = static_cast<Cycle>(c);
    if (static_cast<double>(out) < c) ++out;
    return out == 0 ? 1 : out;
  }

  /// Time of flight between two tiles `tile_hops` apart on a die of
  /// `fabric_width` tiles per edge (>= 1 cycle).
  Cycle tof_cycles(int tile_hops, int fabric_width) const;

  /// One full token circulation past `nodes` writers — the arbitration
  /// round of the token-ring and shared-pool schemes. Half a round is the
  /// mean wait for a free token requested at a uniformly random moment.
  Cycle token_round_cycles(int nodes) const {
    return token_hop_latency * static_cast<Cycle>(nodes);
  }

  /// Throws std::invalid_argument naming the offending "onoc.*" key: a
  /// non-positive channel spec or die edge, a latency below 1, or a channel
  /// so slow (or a die so large) that serializing a UINT32_MAX-byte message
  /// (or crossing the die, 2 x die_edge_cm) takes more cycles than a Cycle
  /// holds. `source`, when given, is the config the values were read from,
  /// and the error then also names the key's line.
  void validate(const Config* source = nullptr) const;

  /// Reads "onoc.*" keys with these defaults and validates the result.
  static OnocParams from_config(const Config& cfg);
};

}  // namespace sctm::onoc
