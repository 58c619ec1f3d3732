// Path-adaptive opto-electronic hybrid NoC (extension).
//
// The ONOC paper's authors' follow-up design (ISPA 2013): instead of
// dividing cores into optically-connected clusters, overlay a full optical
// layer on a full electrical mesh and let the *injection point* decide per
// message which layer to use. The stock policy sends a message optical when
// it travels far or carries much data (both favor the ONOC's
// distance-insensitive, high-bandwidth channels) and electrical otherwise
// (short control messages suffer the E/O + arbitration overhead).
//
// The hybrid is itself a noc::Network, so the full-system substrate, trace
// capture and self-correcting replay all work over it unchanged. Its layers
// take the same parameter blocks the standalone networks do (a NetSpec's
// `enoc` and `onoc`); HybridParams holds only the steering thresholds. The
// optical layer is a token ring (kOpticalOrganization).
#pragma once

#include <memory>

#include "enoc/enoc_network.hpp"
#include "onoc/onoc_network.hpp"

namespace sctm::onoc {

/// Steering policy: which messages take the optical layer.
struct HybridParams {
  /// Messages with topological distance >= this go optical.
  int distance_threshold = 3;
  /// Messages with payload >= this many bytes go optical regardless.
  std::uint32_t size_threshold = 64;

  bool operator==(const HybridParams&) const = default;
};

class HybridNetwork final : public noc::Network {
 public:
  /// The optical layer's channel organization, which the analytic screen
  /// scores the hybrid's optical flows on too.
  static constexpr Arbitration kOpticalOrganization = Arbitration::kTokenRing;

  HybridNetwork(Simulator& sim, std::string name, const noc::Topology& topo,
                const enoc::EnocParams& electrical, const OnocParams& optical,
                const HybridParams& steering);

  void inject(noc::Message msg) override;

  /// Faults install per layer (counters under "<name>.el.fault.*" /
  /// "<name>.op.fault.*"), with decorrelated root seeds so both planes draw
  /// independent fault schedules from one configured seed. The hybrid shell
  /// itself keeps no model — inject() only steers.
  void install_fault_model(const fault::FaultSpec& spec) override;

  /// The policy, exposed for tests and the steering ablation.
  bool goes_optical(const noc::Message& msg) const;

  const HybridParams& params() const { return params_; }
  enoc::EnocNetwork& electrical() { return *electrical_; }
  OnocNetwork& optical() { return *optical_; }
  const enoc::EnocNetwork& electrical() const { return *electrical_; }
  const OnocNetwork& optical() const { return *optical_; }

  /// Messages steered to each layer: the layer's own injected count.
  std::uint64_t optical_count() const { return optical_->injected_count(); }
  std::uint64_t electrical_count() const {
    return electrical_->injected_count();
  }
  /// Fraction of injected messages steered to the optical layer.
  double optical_fraction() const;

 private:
  void install_deliver_up(noc::Network& layer);

  noc::Topology topo_;
  HybridParams params_;
  std::unique_ptr<enoc::EnocNetwork> electrical_;
  std::unique_ptr<OnocNetwork> optical_;
};

}  // namespace sctm::onoc
