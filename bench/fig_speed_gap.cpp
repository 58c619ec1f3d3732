// R-F2: trace-model error as a function of the capture-vs-target speed gap.
//
// The naive trace is frozen at capture-network speed, so its error must grow
// with the gap between capture and target network latency; self-correcting
// replay re-times itself and should stay flat. Capture network: ideal model
// at 2 cycles/hop; targets: 1..32 cycles/hop (ground truth re-executed per
// target).
#include "bench/bench_util.hpp"

int main() {
  using namespace sctm;
  using namespace sctm::bench;

  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 16;
  app.iterations = 2;

  const core::ReplayTrace capture(
      core::run_execution(app, ideal_spec(2), {}).trace);

  Table t("R-F2: runtime error vs target network speed "
          "(capture at 2 cyc/hop, app=fft)");
  t.set_header({"target cyc/hop", "truth runtime", "naive runtime",
                "sctm runtime", "naive err", "sctm err"});

  bool ok = true;
  double naive_err_at_32 = 0, sctm_err_at_32 = 0;
  for (const Cycle per_hop : {1, 2, 4, 8, 16, 32}) {
    const auto truth_run = core::run_execution(app, ideal_spec(per_hop), {});
    core::ReplayConfig naive_cfg;
    naive_cfg.mode = core::ReplayMode::kNaive;
    const auto naive =
        core::run_replay(capture, ideal_spec(per_hop), naive_cfg);
    const auto sctm = core::run_replay(capture, ideal_spec(per_hop), {});

    const auto truth = core::summarize(truth_run.trace);
    const auto en = core::compare(truth, core::summarize(naive.result));
    const auto es = core::compare(truth, core::summarize(sctm.result));
    t.add_row({Table::fmt(static_cast<std::uint64_t>(per_hop)),
               Table::fmt(static_cast<std::uint64_t>(truth.runtime)),
               Table::fmt(static_cast<std::uint64_t>(naive.result.runtime)),
               Table::fmt(static_cast<std::uint64_t>(sctm.result.runtime)),
               Table::pct(en.runtime_err), Table::pct(es.runtime_err)});
    ok = ok && es.runtime_err < 0.10;
    if (per_hop == 32) {
      naive_err_at_32 = en.runtime_err;
      sctm_err_at_32 = es.runtime_err;
    }
  }
  emit(t, "rf2_speed_gap");
  ok = ok && naive_err_at_32 > 5 * sctm_err_at_32;
  return verdict(ok, "R-F2 sctm error stays <10% across the speed gap; naive "
                     "error diverges");
}
