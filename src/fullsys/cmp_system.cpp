#include "fullsys/cmp_system.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace sctm::fullsys {

CmpSystem::CmpSystem(Simulator& sim, std::string name, noc::Network& net,
                     const noc::Topology& topo, const FullSysParams& params,
                     std::vector<std::vector<Op>> streams)
    : Component(sim, std::move(name)),
      net_(net),
      topo_(topo),
      params_(params),
      stat_msgs_(counter("messages")) {
  params_.validate();
  const int n = topo_.node_count();
  if (net_.node_count() != n) {
    throw std::invalid_argument(this->name() + ": network/topology mismatch");
  }
  if (static_cast<int>(streams.size()) != n) {
    throw std::invalid_argument(this->name() + ": need one op stream per node");
  }
  if (params_.mc_nodes.empty()) {
    // Default: the fabric's coordinate-extreme nodes — the four 2D corners
    // (same values as ever), eight on a 3D lattice — deduplicated for small
    // fabrics. File fabrics have no lattice corners; the two index extremes
    // stand in.
    std::vector<NodeId> corners;
    if (topo_.kind() == noc::Topology::Kind::kFile) {
      corners = {0, static_cast<NodeId>(n - 1)};
    } else {
      for (const int z : {0, topo_.depth() - 1}) {
        for (const int y : {0, topo_.height() - 1}) {
          for (const int x : {0, topo_.width() - 1}) {
            corners.push_back(topo_.node_at({x, y, z}));
          }
        }
      }
    }
    std::sort(corners.begin(), corners.end());
    corners.erase(std::unique(corners.begin(), corners.end()), corners.end());
    params_.mc_nodes = corners;
  }
  for (const NodeId m : params_.mc_nodes) {
    if (!topo_.valid_node(m)) {
      throw std::invalid_argument(this->name() + ": invalid mc node");
    }
  }

  for (NodeId i = 0; i < n; ++i) {
    cores_.push_back(std::make_unique<Core>(
        sim, this->name() + ".core" + std::to_string(i), i,
        std::move(streams[static_cast<std::size_t>(i)]), params_,
        static_cast<Fabric&>(*this)));
    banks_.push_back(std::make_unique<L2Bank>(
        sim, this->name() + ".bank" + std::to_string(i), i, params_,
        static_cast<Fabric&>(*this)));
  }
  for (const NodeId m : params_.mc_nodes) {
    mcs_.emplace(m, std::make_unique<MemCtrl>(
                        sim, this->name() + ".mc" + std::to_string(m), m,
                        params_, static_cast<Fabric&>(*this)));
  }
  barrier_ = std::make_unique<BarrierManager>(
      sim, this->name() + ".barrier", params_.barrier_home, n,
      params_.dir_latency, static_cast<Fabric&>(*this));

  auto cb = [this](const noc::Message& m) { on_deliver(m); };
  static_assert(noc::Network::DeliverFn::fits_inline<decltype(cb)>(),
                "fabric delivery callback must stay within the SBO budget");
  net_.set_deliver_callback(std::move(cb));
}

NodeId CmpSystem::home_of(std::uint64_t line) const {
  return static_cast<NodeId>(line %
                             static_cast<std::uint64_t>(topo_.node_count()));
}

NodeId CmpSystem::mc_for(std::uint64_t line) const {
  const auto idx = (line / static_cast<std::uint64_t>(topo_.node_count())) %
                   params_.mc_nodes.size();
  return params_.mc_nodes[static_cast<std::size_t>(idx)];
}

MsgId CmpSystem::send(ProtoMsg type, NodeId src, NodeId dst,
                      std::uint64_t line, const std::vector<MsgId>& causes) {
  const MsgId id = records_.size() + 1;
  for (const MsgId c : causes) {
    if (c < 1 || c >= id || records_.arrive[c - 1] == kNoCycle) {
      throw std::logic_error(name() + ": cause " + std::to_string(c) +
                             " of message " + std::to_string(id) +
                             " never arrived");
    }
  }
  if (records_.size() == UINT32_MAX ||
      records_.parent.size() + causes.size() > UINT32_MAX) {
    throw std::length_error(name() + ": over 2^32 - 1 records or deps");
  }
  noc::Message m;
  m.id = id;
  m.src = src;
  m.dst = dst;
  m.size_bytes = size_of(type);
  m.cls = class_of(type);
  m.tag = encode_tag(type, line);
  ++stat_msgs_;
  records_.append(id, src, dst, m.size_bytes, m.cls,
                  static_cast<std::uint8_t>(type), now(), kNoCycle);
  for (const MsgId c : causes) {
    records_.add_parent(static_cast<std::uint32_t>(c - 1));
  }
  net_.inject(m);
  return id;
}

trace::Records CmpSystem::take_records() {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_.arrive[i] == kNoCycle) {
      throw std::logic_error(name() + ": message " +
                             std::to_string(records_.id[i]) +
                             " never arrived");
    }
  }
  return std::exchange(records_, {});
}

void CmpSystem::on_deliver(const noc::Message& msg) {
  records_.arrive[msg.id - 1] = msg.arrive_time;
  const ProtoMsg type = tag_type(msg.tag);
  const std::uint64_t line = tag_line(msg.tag);
  switch (type) {
    case ProtoMsg::kGetS:
    case ProtoMsg::kGetM:
    case ProtoMsg::kPutM:
    case ProtoMsg::kInvAck:
    case ProtoMsg::kRecallData:
    case ProtoMsg::kRecallStale:
    case ProtoMsg::kMemData:
    case ProtoMsg::kUnblock:
      banks_[static_cast<std::size_t>(msg.dst)]->on_message(type, msg.src,
                                                            line, msg.id);
      return;
    case ProtoMsg::kData:
    case ProtoMsg::kDataM:
    case ProtoMsg::kWbAck:
    case ProtoMsg::kInv:
    case ProtoMsg::kRecall:
    case ProtoMsg::kBarRelease:
      cores_[static_cast<std::size_t>(msg.dst)]->on_message(type, line,
                                                            msg.id);
      return;
    case ProtoMsg::kMemRead:
    case ProtoMsg::kMemWrite: {
      const auto it = mcs_.find(msg.dst);
      if (it == mcs_.end()) {
        throw std::logic_error(name() + ": memory message at non-MC node");
      }
      it->second->on_message(type, msg.src, line, msg.id);
      return;
    }
    case ProtoMsg::kBarArrive:
      barrier_->on_arrive(msg.src, msg.id);
      return;
  }
  throw std::logic_error(name() + ": unroutable message");
}

void CmpSystem::start() {
  for (auto& c : cores_) c->start();
}

bool CmpSystem::finished() const {
  return std::all_of(cores_.begin(), cores_.end(),
                     [](const auto& c) { return c->done(); });
}

Cycle CmpSystem::app_runtime() const {
  Cycle t = 0;
  for (const auto& c : cores_) {
    if (!c->done()) return kNoCycle;
    t = std::max(t, c->finish_time());
  }
  return t;
}

std::vector<std::string> CmpSystem::audit_coherence() const {
  std::vector<std::string> out;
  const int n = topo_.node_count();

  // Gather every L1 copy, keyed by line.
  struct Copy {
    NodeId holder;
    LineState state;
  };
  std::unordered_map<std::uint64_t, std::vector<Copy>> copies;
  for (NodeId c = 0; c < n; ++c) {
    cores_[static_cast<std::size_t>(c)]->l1().for_each_line(
        [&](std::uint64_t line, LineState st) {
          copies[line].push_back({c, st});
        });
  }

  for (const auto& [line, held] : copies) {
    int m_holders = 0;
    for (const auto& cp : held) {
      if (cp.state == LineState::kM) ++m_holders;
    }
    if (m_holders > 1) {
      out.push_back("line " + std::to_string(line) + ": " +
                    std::to_string(m_holders) + " M holders");
    }
  }

  for (NodeId b = 0; b < n; ++b) {
    const auto& bank = *banks_[static_cast<std::size_t>(b)];
    if (!bank.quiescent()) {
      out.push_back("bank " + std::to_string(b) + ": in-flight transaction");
    }
    bank.for_each_dir_entry([&](std::uint64_t line, LineState st, NodeId owner,
                                const std::set<NodeId>& sharers) {
      const auto it = copies.find(line);
      const auto* held = it == copies.end() ? nullptr : &it->second;
      if (st == LineState::kM) {
        bool found = false;
        if (held) {
          for (const auto& cp : *held) {
            if (cp.holder == owner && cp.state == LineState::kM) found = true;
          }
        }
        if (!found) {
          out.push_back("line " + std::to_string(line) + ": dir says M@" +
                        std::to_string(owner) + " but owner lacks M copy");
        }
      }
      if (held) {
        for (const auto& cp : *held) {
          if (cp.state == LineState::kM &&
              (st != LineState::kM || owner != cp.holder)) {
            out.push_back("line " + std::to_string(line) + ": core " +
                          std::to_string(cp.holder) +
                          " holds M unregistered at the directory");
          }
          if (cp.state == LineState::kS &&
              (st != LineState::kS || sharers.find(cp.holder) == sharers.end())) {
            out.push_back("line " + std::to_string(line) + ": core " +
                          std::to_string(cp.holder) +
                          " holds S unregistered at the directory");
          }
        }
      }
    });
  }
  return out;
}

Cycle CmpSystem::run_to_completion() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t events0 = sim().events_executed();
  start();
  sim().run();
  run_wall_seconds_ = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  run_events_ = sim().events_executed() - events0;
  if (!finished()) {
    throw std::logic_error(name() +
                           ": simulation drained but cores not finished "
                           "(protocol deadlock?)");
  }
  return app_runtime();
}

}  // namespace sctm::fullsys
