// Trace capture: subscribes to a CmpSystem's injection and delivery
// observers and appends each message to a Trace's columns.
//
// Each message's facts are stored once, in its record. CmpSystem numbers
// messages 1, 2, ... in send order, so message `id` is record `id - 1`: a
// delivery stamps that record's arrival, and a send names each cause by its
// record index, after checking that the cause has arrived. The slack of a
// dependency is derived (send time - cause arrival), so the trace contract
// that every reader checks holds by construction here.
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

 private:
  Trace trace_;
};

}  // namespace sctm::trace
