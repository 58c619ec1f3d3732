#include "trace/capture.hpp"

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace sctm::trace {

TraceCapture::TraceCapture(fullsys::CmpSystem& cmp, std::string app_name,
                           std::string network_desc, int nodes) {
  trace_.app = std::move(app_name);
  trace_.capture_network = std::move(network_desc);
  trace_.nodes = nodes;

  cmp.set_inject_observer([this](const fullsys::InjectionEvent& ev) {
    Records& records = trace_.records;
    for (const MsgId c : ev.causes) {
      if (c < 1 || c > records.size() || records.arrive[c - 1] == kNoCycle) {
        throw std::logic_error("TraceCapture: cause " + std::to_string(c) +
                               " of message " + std::to_string(ev.msg.id) +
                               " never arrived");
      }
    }
    if (ev.msg.id != records.size() + 1) {
      throw std::logic_error("TraceCapture: send " +
                             std::to_string(records.size() + 1) +
                             " carries id " + std::to_string(ev.msg.id) +
                             " (ids must number sends 1, 2, ...)");
    }
    if (records.size() == UINT32_MAX ||
        records.parent.size() + ev.causes.size() > UINT32_MAX) {
      throw std::length_error("TraceCapture: over 2^32 - 1 records or deps");
    }
    records.append(ev.msg.id, ev.msg.src, ev.msg.dst, ev.msg.size_bytes,
                   ev.msg.cls, static_cast<std::uint8_t>(ev.proto),
                   ev.msg.inject_time, kNoCycle);
    for (const MsgId c : ev.causes) {
      records.add_parent(static_cast<std::uint32_t>(c - 1));
    }
  });
  cmp.set_deliver_observer([this](const noc::Message& m) {
    if (m.id < 1 || m.id > trace_.records.size()) {
      throw std::logic_error("TraceCapture: delivery of unrecorded message");
    }
    trace_.records.arrive[m.id - 1] = m.arrive_time;
  });
}

Trace TraceCapture::finalize(Cycle capture_runtime, double* wall_seconds) && {
  const auto t0 = std::chrono::steady_clock::now();
  trace_.capture_runtime = capture_runtime;
  const Records& r = trace_.records;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (r.arrive[i] == kNoCycle) {
      throw std::logic_error("TraceCapture: message " +
                             std::to_string(r.id[i]) + " never arrived");
    }
  }
  if (wall_seconds) {
    *wall_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  }
  return std::move(trace_);
}

}  // namespace sctm::trace
