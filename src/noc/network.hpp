// Abstract network interface + an ideal (contention-free) reference network.
//
// Everything above the network (full-system engine, trace replay, traffic
// generators) talks to this interface, so the electrical baseline, the ONOC
// and the ideal model are interchangeable per experiment. A network is built
// for one run on one Simulator: its parameters are fixed at construction, and
// a new run or different parameters mean a new network. The base counts
// injected and delivered messages, and idle() compares the two, so no
// backend keeps an in-flight count of its own.
#pragma once

#include <memory>
#include <string>

#include "common/inline_fn.hpp"
#include "fault/fault_model.hpp"
#include "noc/message.hpp"
#include "noc/topology.hpp"
#include "sim/component.hpp"

namespace sctm::noc {

class Network : public Component {
 public:
  /// Delivery callback, invoked once per delivered message on the hot path.
  /// Move-only with a 56-byte inline capture budget (no heap allocation for
  /// the usual [this]-style captures); see common/inline_fn.hpp.
  using DeliverFn = BasicInlineFn<void(const Message&)>;

  Network(Simulator& sim, std::string name, int node_count)
      : Component(sim, std::move(name)), node_count_(node_count) {}

  /// Hands a message to the network at sim().now(). The network owns the
  /// copy until delivery; `inject_time`/`arrive_time` are filled here and at
  /// delivery respectively. Networks are lossless: every injected message is
  /// eventually delivered (tests assert this). This holds even under fault
  /// injection — a message whose retransmission budget is exhausted is still
  /// surfaced (and counted in <name>.fault.messages_lost), so replay can
  /// never hang on a record that will not arrive.
  virtual void inject(Message msg) = 0;

  /// Called once per delivered message, at arrival time.
  void set_deliver_callback(DeliverFn fn) { deliver_ = std::move(fn); }

  int node_count() const { return node_count_; }

  /// True when every injected message has been delivered (used by drivers
  /// to detect drain). A message held for a retransmission or still waiting
  /// on a control plane counts as in flight until it is delivered.
  bool idle() const { return injected_ == delivered_; }

  /// Installs a fault model built from `spec` (must be enabled() — inert
  /// specs build no model so the fault-free path stays byte-identical).
  /// Counters register under "<name>.fault.*". Call once, before traffic.
  /// Backends that model no faults (Ideal) run fault-transparent: the model
  /// is installed but nothing draws from it. Composites (Hybrid) override to
  /// hand each layer its own model with a derived seed.
  virtual void install_fault_model(const fault::FaultSpec& spec);

  fault::FaultModel* fault_model() { return fault_.get(); }
  const fault::FaultModel* fault_model() const { return fault_.get(); }

  std::uint64_t injected_count() const { return injected_; }
  std::uint64_t delivered_count() const { return delivered_; }

 protected:
  /// Subclasses call this at arrival time; it stamps arrive_time, counts the
  /// delivery and invokes the delivery callback.
  void deliver(Message msg);

  void note_injected(Message& msg);

 private:
  int node_count_;
  DeliverFn deliver_;
  /// Null unless install_fault_model() ran — the common case pays one
  /// pointer test at most.
  std::unique_ptr<fault::FaultModel> fault_;
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_ = 0;
};

/// Contention-free network: latency = base + per_hop * distance +
/// size/bandwidth. Useful as a ground-truth in unit tests and as the
/// "infinite bandwidth" limit in sweeps.
class IdealNetwork final : public Network {
 public:
  struct Params {
    Cycle base_latency = 2;        // fixed overhead (cycles)
    Cycle per_hop_latency = 1;     // per topological hop
    double bytes_per_cycle = 16;   // serialization bandwidth

    bool operator==(const Params&) const = default;
  };

  IdealNetwork(Simulator& sim, std::string name, const Topology& topo,
               const Params& params);

  void inject(Message msg) override;

  /// Deterministic latency this model assigns to a message.
  Cycle model_latency(const Message& msg) const;

  const Params& params() const { return params_; }

 private:
  Topology topo_;
  Params params_;
};

}  // namespace sctm::noc
