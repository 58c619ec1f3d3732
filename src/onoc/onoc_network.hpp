// Optical Network-on-Chip simulator.
//
// Architecture: a WDM multiple-writer single-reader (MWSR) crossbar — every
// node owns one receive channel that every other node can modulate onto.
// Transfer latency = arbitration wait + E/O + serialization + time-of-flight
// + O/E. The organization is fixed at construction (a core::NetKind names
// it); besides SWMR and the shared pool (onoc/params.hpp), two MWSR
// arbitration schemes are modeled:
//
//  * kTokenRing — a token per channel circulates the writers (Corona-like);
//    arbitration is fully optical and needs no electrical network, but the
//    token round-trip grows with radix.
//  * kPathSetup — a writer first sends a setup request over an electrical
//    control mesh (a full EnocNetwork instance carrying 1-flit control
//    packets, built from the electrical block the constructor takes, with
//    one vnet); the receiver grants FCFS and the grant travels back before
//    data moves. Setup costs two electrical traversals
//    but arbitrates precisely and supports back-to-back streaming to
//    distinct receivers. A message counts as in flight until its data
//    arrives, and every setup and grant on the control mesh belongs to such
//    a message, so idle() needs no control-mesh term: the mesh drains with
//    the data plane.
//
// The data plane is event-driven (no per-cycle clock): an idle ONOC costs
// zero events, so trace replay over it is fast.
//
// Per-cycle arbitration flush: token-ring and SWMR arbitration are
// per-channel independent — one TokenRing per receive channel, one busy
// horizon per source channel. inject() queues the request on its channel,
// marks the channel in a bitmask and schedules one late-band flush per
// cycle, which walks the marked channels in ascending order and grants each
// channel's requests in arrival order. Every request of a cycle carries the
// same timestamp, so the grant times equal what an immediate per-request
// acquire would produce; the grant events do not. The ascending-channel
// walk in the late band fixes the order of stat adds and scheduled
// transmissions, and with it the execution-driven model's event order:
// granting at inject leaves replay schedules alone but changes
// execution-driven runtimes, so it would be a model change (DESIGN.md §10).
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "common/flat_map.hpp"

#include "enoc/enoc_network.hpp"
#include "noc/network.hpp"
#include "onoc/params.hpp"
#include "onoc/token.hpp"

namespace sctm::onoc {

class OnocNetwork : public noc::Network {
 public:
  /// `topo` fixes the tile layout (time-of-flight distances) and, in
  /// path-setup mode, the control mesh's fabric. `organization` selects the
  /// channel organization. A kPathSetup network runs its control mesh on
  /// `electrical` with one vnet; a kSharedPool network pools
  /// `pool_channels` (>= 1) channels. The other organizations ignore both.
  OnocNetwork(Simulator& sim, std::string name, const noc::Topology& topo,
              const OnocParams& params, Arbitration organization,
              const enoc::EnocParams& electrical = {}, int pool_channels = 0);

  void inject(noc::Message msg) override;

  /// Fault injection (DESIGN.md §11) on the optical plane: token loss
  /// (timeout-regenerated at the ring's home node), path-setup grant loss
  /// (receiver re-issues after the reservation timeout), and whole-transfer
  /// data corruption at the BER the eroded loss budget implies (ring thermal
  /// drift + laser degradation), recovered by NACK + re-arbitration under
  /// the spec's retry budget. The electrical control mesh itself runs
  /// fault-free — control-plane loss is modeled abstractly by the
  /// reservation-loss class. Token-loss draws come from per-channel child
  /// streams, so one channel's draws never depend on another's traffic.
  void install_fault_model(const fault::FaultSpec& spec) override;

  const OnocParams& params() const { return params_; }
  const noc::Topology& topology() const { return topo_; }

  /// Control mesh (null in token mode); exposed for power accounting.
  const enoc::EnocNetwork* control_network() const { return ctrl_.get(); }

  /// Deterministic no-contention latency for a message (unit-test oracle and
  /// the "zero-load" reference): E/O + serialization + ToF + O/E.
  Cycle zero_load_latency(const noc::Message& msg) const;

  /// Total bytes moved over the optical data plane (power accounting).
  std::uint64_t data_bytes() const { return data_bytes_; }

 private:
  struct Pending {
    noc::Message msg;
    /// Grant re-issues consumed by reservation-loss faults for this setup.
    std::uint32_t resv_retries = 0;
  };
  enum class CtrlKind : std::uint64_t { kSetup = 1, kGrant = 2 };

  void route_to_arbitration(const noc::Message& msg);
  void start_transmission(noc::Message msg);
  void complete_transmission(noc::Message msg);
  void on_ctrl_deliver(const noc::Message& ctrl);
  void send_ctrl(CtrlKind kind, NodeId from, NodeId to, std::uint64_t pending_id);
  void send_grant(NodeId dst, std::uint64_t pending_id);
  void receiver_freed(NodeId dst);
  void queue_arbitration(const noc::Message& msg, NodeId channel);
  void arb_flush();
  /// Lowest channel >= `from` with queued requests, read from the live
  /// mask; arb_chan_.size() when there is none.
  std::size_t next_queued_channel(std::size_t from) const;
  /// Records the arbitration wait and schedules the transmission start.
  void grant(const noc::Message& msg, Cycle start, Cycle now);

  noc::Topology topo_;
  OnocParams params_;
  Arbitration organization_;

  // Token mode: one ring per destination channel.
  std::vector<TokenRing> tokens_;

  // SWMR mode: per-source channel busy horizon.
  std::vector<Cycle> src_channel_free_;

  /// Per-channel request queues for the current cycle (token: keyed by dst,
  /// SWMR: keyed by src), in arrival order — exactly the per-channel
  /// subsequence of the immediate-acquire call order. Capacity retained.
  std::vector<std::vector<noc::Message>> arb_chan_;
  /// Bit c % 64 of word c / 64 is set while arb_chan_[c] holds requests.
  std::vector<std::uint64_t> arb_queued_;
  bool arb_scheduled_ = false;

  // Shared-pool mode: busy horizon per pooled channel.
  std::vector<Cycle> pool_free_;

  // Path-setup mode.
  std::unique_ptr<enoc::EnocNetwork> ctrl_;
  struct Receiver {
    bool busy = false;
    std::deque<std::uint64_t> queue;  // pending ids waiting for a grant
  };
  std::vector<Receiver> receivers_;
  /// Path-setup transactions in flight, keyed by pending id (allocation-free
  /// in steady state; see common/flat_map.hpp).
  FlatMap<std::uint64_t, Pending> pending_;
  std::uint64_t next_pending_id_ = 1;
  std::uint64_t next_ctrl_msg_id_ = 1;

  std::uint64_t data_bytes_ = 0;
  /// Worst-case link BER under the installed fault spec (0 = error-free).
  double optical_ber_ = 0.0;

  Accumulator& stat_arb_wait_;
  Accumulator& stat_ser_;
  std::uint64_t& stat_transmissions_;
};

}  // namespace sctm::onoc
