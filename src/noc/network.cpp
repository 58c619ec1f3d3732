#include "noc/network.hpp"

#include <stdexcept>

namespace sctm::noc {

void Network::note_injected(Message& msg) {
  if (msg.src < 0 || msg.src >= node_count_ || msg.dst < 0 ||
      msg.dst >= node_count_) {
    throw std::logic_error(name() + ": inject with invalid src/dst");
  }
  msg.inject_time = sim().now();
  ++injected_;
}

void Network::install_fault_model(const fault::FaultSpec& spec) {
  fault_ = std::make_unique<fault::FaultModel>(
      spec, sim().stats(), name() + ".fault", node_count_);
}

void Network::deliver(Message msg) {
  msg.arrive_time = sim().now();
  ++delivered_;
  if (deliver_) deliver_(msg);
}

IdealNetwork::IdealNetwork(Simulator& sim, std::string name,
                           const Topology& topo, const Params& params)
    : Network(sim, std::move(name), topo.node_count()),
      topo_(topo),
      params_(params) {}

Cycle IdealNetwork::model_latency(const Message& msg) const {
  const int hops = msg.src == msg.dst ? 0 : topo_.distance(msg.src, msg.dst);
  const double ser =
      static_cast<double>(msg.size_bytes) / params_.bytes_per_cycle;
  auto ser_cycles = static_cast<Cycle>(ser);
  if (static_cast<double>(ser_cycles) < ser) ++ser_cycles;
  return params_.base_latency +
         params_.per_hop_latency * static_cast<Cycle>(hops) + ser_cycles;
}

void IdealNetwork::inject(Message msg) {
  note_injected(msg);
  const Cycle lat = model_latency(msg);
  auto ev = [this, msg]() mutable { deliver(msg); };
  static_assert(InlineFn::fits_inline<decltype(ev)>(),
                "delivery closure must stay within the event SBO budget");
  sim().schedule_in(lat, std::move(ev));
}

}  // namespace sctm::noc
