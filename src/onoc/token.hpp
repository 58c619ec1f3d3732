// Token-ring channel arbitration (Corona-style MWSR crossbar).
//
// One token per channel circulates all writer nodes at one hop per
// `hop_latency` cycles. A writer transmits only while holding the token.
// The model is analytic-deterministic: acquire() is called in simulation
// time order and computes the grant instant from the token's position, which
// rotates freely while the channel is idle and is pinned at the holder while
// busy. Requests are served FCFS in call order (a simplification of true
// ring order between concurrent waiters; documented in DESIGN.md).
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace sctm::onoc {

class TokenRing {
 public:
  /// `nodes` writers on the ring; token advances one node per `hop_latency`.
  TokenRing(int nodes, Cycle hop_latency);

  /// Requests the token for writer `s` at time `t` (t must be >= the time of
  /// the previous call). The channel is held for `hold` cycles from the
  /// grant. Returns the grant time.
  Cycle acquire(NodeId s, Cycle t, Cycle hold);

  /// Time the channel becomes free after the last granted hold.
  Cycle free_at() const { return free_at_; }

  /// Fault hook (DESIGN.md §11): the circulating token is lost at time `t`.
  /// The self-correction protocol detects the silence by timeout and node 0
  /// regenerates the token `regen` cycles later; no writer can be granted in
  /// between, so the channel horizon advances to max(t, free_at) + regen.
  /// Like acquire(), calls must arrive in simulation time order.
  void lose_token(Cycle t, Cycle regen);

  /// Token position at time `t` assuming no further grants (for tests).
  NodeId position_at(Cycle t) const;

  std::uint64_t grants() const { return grants_; }

 private:
  int nodes_;
  Cycle hop_;
  NodeId pos_ = 0;      // holder/position when the channel last became free
  Cycle free_at_ = 0;   // channel free time of the last grant
  Cycle last_call_ = 0;
  std::uint64_t grants_ = 0;
};

}  // namespace sctm::onoc
