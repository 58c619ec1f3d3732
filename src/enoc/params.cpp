#include "enoc/params.hpp"

#include <stdexcept>
#include <string>

namespace sctm::enoc {
namespace {

constexpr Spelling<ArbiterKind> kArbiterKindNames[] = {
    {ArbiterKind::kRoundRobin, "round-robin"},
    {ArbiterKind::kMatrix, "matrix"},
};

}  // namespace

void EnocParams::validate(bool needs_dateline, const Config* source) const {
  const auto reject = [source](const char* key, const std::string& why) {
    if (source != nullptr) source->reject(key, why);
    throw std::invalid_argument(std::string(key) + ": " + why);
  };
  const auto check_range = [&reject](const char* key, std::int64_t v,
                                     std::int64_t lo, std::int64_t hi) {
    if (v < lo || v > hi) {
      reject(key, std::to_string(v) + " is out of range [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
  };
  check_range("enoc.vnets", vnets, 1, kMaxVcs);
  check_range("enoc.vcs_per_vnet", vcs_per_vnet, 1, kMaxVcs);
  const std::int64_t vcs = std::int64_t{vnets} * vcs_per_vnet;
  if (vcs > kMaxVcs) {
    reject("enoc.vcs_per_vnet",
           "enoc.vnets x enoc.vcs_per_vnet = " + std::to_string(vcs) +
               " VCs per port exceeds the datapath limit " +
               std::to_string(kMaxVcs));
  }
  check_range("enoc.buffer_depth", buffer_depth, 1, kMaxBufferDepth);
  if (flit_bytes == 0) reject("enoc.flit_bytes", "must be >= 1");
  if (link_latency < 1) reject("enoc.link_latency", "must be >= 1");
  if (credit_latency < 1) reject("enoc.credit_latency", "must be >= 1");
  if (needs_dateline && vcs_per_vnet % 2 != 0) {
    reject("enoc.vcs_per_vnet",
           "torus/ring needs an even count (dateline halves)");
  }
}

EnocParams EnocParams::from_config(const Config& cfg) {
  EnocParams p;
  p.vnets = cfg.get_as("enoc.vnets", p.vnets);
  p.vcs_per_vnet = cfg.get_as("enoc.vcs_per_vnet", p.vcs_per_vnet);
  p.buffer_depth = cfg.get_as("enoc.buffer_depth", p.buffer_depth);
  p.flit_bytes = cfg.get_as("enoc.flit_bytes", p.flit_bytes);
  p.head_bytes = cfg.get_as("enoc.head_bytes", p.head_bytes);
  p.link_latency = cfg.get_as("enoc.link_latency", p.link_latency);
  p.credit_latency = cfg.get_as("enoc.credit_latency", p.credit_latency);
  p.adaptive = cfg.get_bool("enoc.adaptive", p.adaptive);

  p.routing = cfg.get_enum("enoc.routing", noc::kRoutingAlgoNames);
  p.arbiter =
      cfg.get_enum("enoc.arbiter", kArbiterKindNames).value_or(p.arbiter);

  p.validate(false, &cfg);
  return p;
}

}  // namespace sctm::enoc
