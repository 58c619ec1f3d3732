// Deterministic, seeded fault injection.
//
// One FaultModel instance lives on one network (composites give each layer
// its own, with a derived seed). It owns the fault randomness and the
// message-layer retry bookkeeping; the *semantics* of each fault class stay
// in the network that draws it (enoc/onoc code decides what a corrupted flit
// or a lost token means for its datapath).
//
// Stream placement fixes the fault schedule (DESIGN.md §11):
//
//  * One stream per class for ENoC flit faults, reservation loss and
//    optical data corruption, consumed in event order and, on the ENoC, in
//    the order routers emit their hops (router id, then emission order).
//  * One child stream per channel for token loss. Each channel's draws
//    follow that channel's own request order, so the token-loss schedule of
//    one channel does not depend on traffic on any other channel.
//
// The streams are derived from the spec seed at construction, so two models
// built from one spec draw the same fault schedule; a replay pass builds its
// network, and with it a fresh model, every time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "fault/fault_spec.hpp"

namespace sctm::fault {

class FaultModel {
 public:
  /// Registers counters under "<stat_prefix>.*" in `stats` (the registry
  /// must keep the entries while the model lives). `channels` sizes the
  /// per-channel token-loss stream family — pass the network's node count.
  FaultModel(const FaultSpec& spec, StatRegistry& stats,
             const std::string& stat_prefix, int channels);

  const FaultSpec& spec() const { return spec_; }

  // --- ENoC plane: called as a router emits each link traversal -----------
  bool draw_flit_corrupt();
  bool draw_flit_drop();
  bool draw_link_stuck_onset();
  /// A flit crossed a link inside a stuck-at episode (counted as corruption
  /// attributed to the stuck link; no draw).
  void note_stuck_hit();

  // --- ONoC plane ----------------------------------------------------------
  /// Token-loss draw for one arbitration request on `channel`, from the
  /// channel's own stream.
  bool draw_token_loss(int channel);

  /// Reservation (path-setup grant) loss.
  bool draw_reservation_loss();

  /// Whole-transfer optical corruption with probability `p` (the caller
  /// derives p from the BER the loss budget implies for this message's
  /// length).
  bool draw_optical_corrupt(double p);

  // --- Message-layer recovery ----------------------------------------------
  enum class Action {
    kRetransmit,  // re-inject after nack_delay()
    kGiveUp,      // retry budget exhausted: surface the message, count it lost
  };

  /// A completed message failed its integrity check at `now`. Bumps the
  /// retry ladder and decides recovery; on kGiveUp the episode is closed
  /// (counted in messages_lost) and the caller must still deliver the
  /// message so the fabric stays lossless.
  Action on_corrupt_message(MsgId id, Cycle now);

  /// A message completed clean at `now`. Closes any open retry episode
  /// (counted in messages_recovered, with the detect-to-delivery penalty
  /// recorded); no-op for messages that were never corrupted.
  void on_clean_delivery(MsgId id, Cycle now);

  Cycle nack_delay() const { return spec_.nack_cycles; }

  /// Messages with an open retry episode (in-flight retransmissions).
  std::size_t open_retries() const { return retries_.size(); }

 private:
  struct RetryState {
    int attempts = 0;
    Cycle first_detect = 0;
  };

  FaultSpec spec_;
  Rng enoc_rng_;
  Rng resv_rng_;
  Rng opt_rng_;
  std::vector<Rng> chan_rng_;
  FlatMap<MsgId, RetryState> retries_;

  std::uint64_t& stat_flit_corrupt_;
  std::uint64_t& stat_flit_drop_;
  std::uint64_t& stat_link_stuck_;
  std::uint64_t& stat_token_loss_;
  std::uint64_t& stat_reservation_loss_;
  std::uint64_t& stat_optical_corrupt_;
  std::uint64_t& stat_retransmissions_;
  std::uint64_t& stat_messages_lost_;
  std::uint64_t& stat_messages_recovered_;
  Accumulator& stat_recovery_penalty_;
};

}  // namespace sctm::fault
