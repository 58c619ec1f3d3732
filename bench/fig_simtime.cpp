// R-F3: total simulation time per mode.
//
// The abstract's second claim: the self-correction trace model achieves its
// precision "while not substantially extend[ing] the total simulation time"
// relative to plain trace simulation — and both are far faster than
// execution-driven full-system simulation. Wall-clock seconds on this host;
// the paper-relevant quantity is the *ratio* structure. Each replay takes a
// few milliseconds, so naive and SCTM replay run as interleaved pairs and
// sctm/naive is the median per-pair ratio: a host-speed shift moves both
// sides of a pair alike.
#include <algorithm>

#include "bench/bench_util.hpp"

namespace {

constexpr int kPairs = 11;

}  // namespace

int main() {
  using namespace sctm;
  using namespace sctm::bench;

  Table t("R-F3: simulation wall time per mode (target: onoc token), "
          "larger workloads");
  t.set_header({"app", "exec (s)", "exec detailed (s)", "capture (s)",
                "naive replay (s)", "sctm replay (s)", "sctm/naive",
                "exec-det/sctm", "sctm ev/msg"});

  double worst_ratio = 0;
  double speedup_sum = 0;
  int n = 0;
  for (auto app : standard_apps(16, 32, 4)) {  // ~4x the standard size
    const auto capture = core::run_execution(app, enoc_spec(), {});
    const auto truth = core::run_execution(app, onoc_token_spec(), {});
    // The same run with an instruction-interpreting front end (per-cycle
    // core events): the cost profile of the paper's Simics/GEMS class.
    fullsys::FullSysParams detailed_sys;
    detailed_sys.core_detail = fullsys::CoreDetail::kPerCycle;
    const auto truth_detailed =
        core::run_execution(app, onoc_token_spec(), detailed_sys);

    const core::ReplayTrace rt(capture.trace);
    core::ReplayConfig naive_cfg;
    naive_cfg.mode = core::ReplayMode::kNaive;
    core::ReplayRun naive, sctm;
    const PairTiming pairs = interleaved_pairs(
        kPairs,
        [&] {
          naive = core::run_replay(rt, onoc_token_spec(), naive_cfg);
          return naive.wall_seconds;
        },
        [&] {
          sctm = core::run_replay(rt, onoc_token_spec(), {});
          return sctm.wall_seconds;
        });
    naive.wall_seconds = pairs.a_s;
    sctm.wall_seconds = pairs.b_s;

    const double ratio = pairs.ratio;
    const double speedup =
        truth_detailed.wall_seconds / std::max(1e-9, sctm.wall_seconds);
    worst_ratio = std::max(worst_ratio, ratio);
    speedup_sum += speedup;
    ++n;
    // Kernel events per replayed message: the quiescence observable. With
    // the activity scoreboard the event count tracks flit activity, so this
    // stays flat as the workload's idle fraction grows.
    const double ev_per_msg =
        static_cast<double>(sctm.result.events) /
        std::max<std::size_t>(1, capture.trace.records.size());
    t.add_row({app.name, Table::fmt(truth.wall_seconds, 3),
               Table::fmt(truth_detailed.wall_seconds, 3),
               Table::fmt(capture.wall_seconds, 3),
               Table::fmt(naive.wall_seconds, 4),
               Table::fmt(sctm.wall_seconds, 4), Table::fmt(ratio, 2) + "x",
               Table::fmt(speedup, 1) + "x", Table::fmt(ev_per_msg, 1)});
  }
  emit(t, "rf3_simtime");
  std::printf("worst sctm/naive overhead (median of %d pairs): %.2fx; mean "
              "exec-detailed/sctm speedup: %.1fx\n",
              kPairs, worst_ratio, speedup_sum / n);
  std::puts("note: 'exec detailed' runs the identical schedule with a "
            "per-cycle (instruction-interpreting) front end — the cost "
            "profile of the paper's Simics/GEMS class. The timing results "
            "are bit-identical to 'exec'; only the simulation cost differs. "
            "The abstract's speed claim is the sctm/naive column.");

  // The abstract's (testable) claim: self-correction does not substantially
  // extend the total simulation time over plain trace simulation. The
  // exec-vs-replay gap is informational: in this substrate the network model
  // dominates both, whereas the paper's Simics front end dominated exec —
  // the per-cycle column shows the knob but our kernels are memory-bound,
  // so even instruction-granular interpretation stays cheap.
  const bool ok = worst_ratio < 2.0;
  return verdict(ok, "R-F3 sctm replay stays within 2x of naive trace "
                     "replay");
}
