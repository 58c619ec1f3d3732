// R-A2 ablation: replay-engine overhead accounting.
//
// Kernel events and trace file size (v1 and v2, each written in memory) of
// self-correcting replay vs naive replay vs the execution-driven front end,
// per application.
// The claim under test: the correction machinery adds bounded overhead on
// top of naive replay (it is the same event-driven network simulation plus
// O(deps) bookkeeping per message).
#include <sstream>

#include "bench/bench_util.hpp"
#include "trace/trace_io.hpp"
#include "tracestore/trace_store.hpp"

namespace {

double mib(const std::ostringstream& file) {
  return static_cast<double>(file.str().size()) / (1024.0 * 1024.0);
}

}  // namespace

int main() {
  using namespace sctm;
  using namespace sctm::bench;

  // Capture on the ideal network and replay on the detailed electrical mesh
  // so the two replay modes produce genuinely different schedules (replaying
  // on the capture network itself would make them identical by the
  // fixed-point property).
  Table t("R-A2: cost accounting per mode (capture: ideal, target: enoc "
          "mesh)");
  t.set_header({"app", "msgs", "deps/msg", "exec events", "naive events",
                "sctm events", "sctm/naive events", "v1 MiB", "v2 MiB"});

  bool ok = true;
  for (const auto& app : standard_apps(16, 32, 4)) {
    const auto capture = core::run_execution(app, ideal_spec(2), {});
    core::ReplayConfig naive_cfg;
    naive_cfg.mode = core::ReplayMode::kNaive;
    const core::ReplayTrace rt(capture.trace);
    const auto naive = core::run_replay(rt, enoc_spec(), naive_cfg);
    const auto sctm = core::run_replay(rt, enoc_spec(), {});
    // Reference: the full execution-driven run on the same target.
    const auto exec_target = core::run_execution(app, enoc_spec(), {});

    const std::uint64_t deps = capture.trace.records.parent.size();
    std::ostringstream v1_file, v2_file;
    trace::write_binary(capture.trace, v1_file);
    tracestore::write_v2(capture.trace, v2_file);
    const double ratio = static_cast<double>(sctm.result.events) /
                         static_cast<double>(naive.result.events);
    ok = ok && ratio < 2.0 && sctm.result.events <= exec_target.events;
    t.add_row({app.name,
               Table::fmt(static_cast<std::uint64_t>(
                   capture.trace.records.size())),
               Table::fmt(static_cast<double>(deps) /
                              static_cast<double>(capture.trace.records.size()),
                          2),
               Table::fmt(exec_target.events), Table::fmt(naive.result.events),
               Table::fmt(sctm.result.events), Table::fmt(ratio, 2) + "x",
               Table::fmt(mib(v1_file), 2), Table::fmt(mib(v2_file), 2)});
  }
  emit(t, "ra2_overhead");
  return verdict(ok, "R-A2 sctm event overhead < 2x naive and below "
                     "execution-driven cost");
}
