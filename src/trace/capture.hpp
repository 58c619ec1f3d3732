// Trace capture: subscribes to a CmpSystem's injection and delivery
// observers and materializes a Trace.
#pragma once

#include <string>
#include <unordered_map>

#include "fullsys/cmp_system.hpp"
#include "trace/record.hpp"

namespace sctm::trace {

class TraceCapture {
 public:
  /// Attaches to `cmp` (installs both observers — do not install others).
  TraceCapture(fullsys::CmpSystem& cmp, std::string app_name,
               std::string network_desc, int nodes);

  /// Validates and returns the trace; call after the capture run finished.
  /// `capture_runtime` is the application runtime on the capture network.
  /// Throws std::logic_error when any message never arrived or dependencies
  /// are acausal. When `wall_seconds` is non-null it receives the host time
  /// spent validating/materializing the trace (the "finalize_trace" phase of
  /// the run-metrics document).
  Trace finalize(Cycle capture_runtime, double* wall_seconds = nullptr) &&;

  std::size_t captured() const { return trace_.records.size(); }

 private:
  Trace trace_;
  std::unordered_map<MsgId, std::size_t> index_;
};

}  // namespace sctm::trace
