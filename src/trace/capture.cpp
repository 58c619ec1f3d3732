#include "trace/capture.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

namespace sctm::trace {

TraceCapture::TraceCapture(fullsys::CmpSystem& cmp, std::string app_name,
                           std::string network_desc, int nodes) {
  trace_.app = std::move(app_name);
  trace_.capture_network = std::move(network_desc);
  trace_.nodes = nodes;

  cmp.set_inject_observer([this](const fullsys::InjectionEvent& ev) {
    std::vector<TraceRecord>& records = trace_.records;
    TraceRecord r;
    r.deps.reserve(ev.causes.size());
    for (const MsgId c : ev.causes) {
      const TraceRecord* cause =
          c >= 1 && c <= records.size() ? &records[c - 1] : nullptr;
      if (cause == nullptr || cause->arrive_time == kNoCycle) {
        throw std::logic_error("TraceCapture: cause " + std::to_string(c) +
                               " of message " + std::to_string(ev.msg.id) +
                               " never arrived");
      }
      r.deps.push_back({c, ev.msg.inject_time - cause->arrive_time});
    }
    if (ev.msg.id != records.size() + 1) {
      throw std::logic_error("TraceCapture: send " +
                             std::to_string(records.size() + 1) +
                             " carries id " + std::to_string(ev.msg.id) +
                             " (ids must number sends 1, 2, ...)");
    }
    r.id = ev.msg.id;
    r.src = ev.msg.src;
    r.dst = ev.msg.dst;
    r.size_bytes = ev.msg.size_bytes;
    r.cls = ev.msg.cls;
    r.proto = static_cast<std::uint8_t>(ev.proto);
    r.inject_time = ev.msg.inject_time;
    records.push_back(std::move(r));
  });
  cmp.set_deliver_observer([this](const noc::Message& m) {
    if (m.id < 1 || m.id > trace_.records.size()) {
      throw std::logic_error("TraceCapture: delivery of unrecorded message");
    }
    trace_.records[m.id - 1].arrive_time = m.arrive_time;
  });
}

Trace TraceCapture::finalize(Cycle capture_runtime, double* wall_seconds) && {
  const auto t0 = std::chrono::steady_clock::now();
  trace_.capture_runtime = capture_runtime;
  for (const auto& r : trace_.records) {
    if (r.arrive_time == kNoCycle) {
      throw std::logic_error("TraceCapture: message " + std::to_string(r.id) +
                             " never arrived");
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
