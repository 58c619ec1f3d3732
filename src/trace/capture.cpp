#include "trace/capture.hpp"

#include <chrono>
#include <stdexcept>

namespace sctm::trace {

TraceCapture::TraceCapture(fullsys::CmpSystem& cmp, std::string app_name,
                           std::string network_desc, int nodes) {
  trace_.app = std::move(app_name);
  trace_.capture_network = std::move(network_desc);
  trace_.nodes = nodes;

  cmp.set_inject_observer([this](const fullsys::InjectionEvent& ev) {
    TraceRecord r;
    r.id = ev.msg.id;
    r.src = ev.msg.src;
    r.dst = ev.msg.dst;
    r.size_bytes = ev.msg.size_bytes;
    r.cls = ev.msg.cls;
    r.proto = static_cast<std::uint8_t>(ev.proto);
    r.inject_time = ev.msg.inject_time;
    r.deps.reserve(ev.deps.size());
    for (const auto& d : ev.deps) r.deps.push_back({d.parent, d.slack});
    index_.emplace(r.id, trace_.records.size());
    trace_.records.push_back(std::move(r));
  });
  cmp.set_deliver_observer([this](const noc::Message& m) {
    const auto it = index_.find(m.id);
    if (it == index_.end()) {
      throw std::logic_error("TraceCapture: delivery of unrecorded message");
    }
    trace_.records[it->second].arrive_time = m.arrive_time;
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
    for (const auto& d : r.deps) {
      const auto it = index_.find(d.parent);
      if (it == index_.end()) {
        throw std::logic_error("TraceCapture: dependency on unknown message");
      }
      const TraceRecord& p = trace_.records[it->second];
      // Capture-time invariant: slack was computed as inject - arrival, so
      // every dependency reconstructs the injection time exactly.
      if (p.arrive_time + d.slack != r.inject_time) {
        throw std::logic_error(
            "TraceCapture: inconsistent dependency slack for message " +
            std::to_string(r.id));
      }
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
