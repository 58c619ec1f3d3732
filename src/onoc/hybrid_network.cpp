#include "onoc/hybrid_network.hpp"

namespace sctm::onoc {

HybridNetwork::HybridNetwork(Simulator& sim, std::string name,
                             const noc::Topology& topo,
                             const enoc::EnocParams& electrical,
                             const OnocParams& optical,
                             const HybridParams& steering)
    : Network(sim, std::move(name), topo.node_count()),
      topo_(topo),
      params_(steering) {
  electrical_ = std::make_unique<enoc::EnocNetwork>(
      sim, this->name() + ".el", topo_, electrical);
  optical_ = std::make_unique<OnocNetwork>(sim, this->name() + ".op", topo_,
                                           optical, kOpticalOrganization);
  // Both layers deliver into the hybrid's single delivery stream; latency
  // accounting happens here so the histogram covers both layers.
  // DeliverFn is move-only, so each layer gets its own instance.
  install_deliver_up(*electrical_);
  install_deliver_up(*optical_);
}

void HybridNetwork::install_deliver_up(noc::Network& layer) {
  auto deliver_up = [this](const noc::Message& m) {
    noc::Message msg = m;
    msg.arrive_time = kNoCycle;  // deliver() restamps (same cycle)
    deliver(msg);
  };
  static_assert(noc::Network::DeliverFn::fits_inline<decltype(deliver_up)>(),
                "hybrid layer callback must stay within the SBO budget");
  layer.set_deliver_callback(std::move(deliver_up));
}

void HybridNetwork::install_fault_model(const fault::FaultSpec& spec) {
  electrical_->install_fault_model(spec);
  // Bit-complemented root: FaultModel derives all streams through a
  // splitmix-style finalizer, so any distinct root decorrelates the planes.
  optical_->install_fault_model(spec.with_seed(~spec.seed));
}

bool HybridNetwork::goes_optical(const noc::Message& msg) const {
  if (msg.src == msg.dst) return false;  // loopback stays local/electrical
  if (msg.size_bytes >= params_.size_threshold) return true;
  return topo_.distance(msg.src, msg.dst) >= params_.distance_threshold;
}

void HybridNetwork::inject(noc::Message msg) {
  note_injected(msg);
  if (goes_optical(msg)) {
    optical_->inject(msg);
  } else {
    electrical_->inject(msg);
  }
}

double HybridNetwork::optical_fraction() const {
  const auto total = optical_count() + electrical_count();
  return total == 0 ? 0.0
                    : static_cast<double>(optical_count()) /
                          static_cast<double>(total);
}

}  // namespace sctm::onoc
