// Trace capture: subscribes to a CmpSystem's injection and delivery
// observers and materializes a Trace.
//
// Each message's facts are stored once, in its record. CmpSystem numbers
// messages 1, 2, ... in send order, so message `id` is record `id - 1`: a
// delivery stamps that record's arrival, and a send derives each
// dependency's slack from the arrival its cause's record already holds
// (slack = send time - cause arrival). The slack identity that
// core::ReplayTrace checks on every loaded trace therefore holds by
// construction here.
#pragma once

#include <string>

#include "fullsys/cmp_system.hpp"
#include "trace/record.hpp"

namespace sctm::trace {

class TraceCapture {
 public:
  /// Attaches to `cmp` (installs both observers — do not install others).
  /// A send whose id breaks the 1, 2, ... numbering, or whose cause has not
  /// arrived, throws std::logic_error from inside the send.
  TraceCapture(fullsys::CmpSystem& cmp, std::string app_name,
               std::string network_desc, int nodes);

  /// Returns the trace; call after the capture run finished.
  /// `capture_runtime` is the application runtime on the capture network.
  /// Throws std::logic_error when any message never arrived. When
  /// `wall_seconds` is non-null it receives the host time spent
  /// materializing the trace (the "finalize_trace" phase of the run-metrics
  /// document).
  Trace finalize(Cycle capture_runtime, double* wall_seconds = nullptr) &&;

  std::size_t captured() const { return trace_.records.size(); }

 private:
  Trace trace_;
};

}  // namespace sctm::trace
