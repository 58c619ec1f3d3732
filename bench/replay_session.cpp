// Replay-session bench: fresh construction vs the reset/reuse protocol.
//
// Replays one captured trace per network kind two ways: "fresh" pays the
// full construction cost (build a session — Simulator + network + every
// pass buffer — run one pass, snapshot its stats, tear it all down) while
// "session" runs the same pass on one long-lived ReplaySession recycled
// through Simulator::reset() + Network::reset(). The per-pass wall-time
// ratio is the price of construction the reset protocol eliminates;
// exploration and the iterative engine pay it per pass, so it multiplies.
//
// Each rep times one fresh pass and one session pass back to back, so a
// clock shift during the run moves both sides of a pair alike; the table
// reports per-side medians and the median of the per-pair ratios. The
// enoc ratio sits near 1.05, within one pass's timing noise, so even
// `--smoke` takes 21 pairs to keep that median steady.
//
// Emits bench_results/BENCH_replay_session.json and exits non-zero if the
// session schedule is not bit-identical to fresh construction or the median
// per-pair ratio is below 1 (a session pass slower than a fresh one).
// `--smoke` runs a reduced configuration for CI.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/json.hpp"
#include "common/run_metrics.hpp"
#include "core/replay_session.hpp"

namespace sctm {
namespace {

/// Wall time of fn, in seconds.
template <typename Fn>
double seconds_of(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median of an odd-sized sample.
double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

struct KindResult {
  std::string name;
  double fresh_s = 0;       // median new session: build + pass + teardown
  double session_s = 0;     // median warmed run_pass(): reset + pass
  double speedup = 0;       // median of the per-rep fresh/session ratios
  std::uint64_t events = 0; // kernel events per pass
  bool identical = false;   // session schedule == fresh schedule
};

KindResult measure(const std::string& name, const core::ReplayTrace& rt,
                   const core::NetSpec& spec, int reps) {
  const core::ReplayConfig cfg;
  KindResult out;
  out.name = name;

  auto fresh_pass = [&] {
    core::ReplaySession fresh_session(rt, spec, cfg);
    fresh_session.run_pass();
    fresh_session.snapshot_stats();
    return fresh_session.take_result();
  };
  const core::ReplayResult fresh = fresh_pass();

  core::ReplaySession session(rt, spec, cfg);
  session.run_pass();  // warmup: size every retained-capacity structure
  session.run_pass();
  std::vector<double> fresh_s, session_s, ratio;
  for (int r = 0; r < reps; ++r) {
    fresh_s.push_back(seconds_of([&] { fresh_pass(); }));
    session_s.push_back(seconds_of([&] { session.run_pass(); }));
    ratio.push_back(fresh_s.back() / session_s.back());
  }
  out.fresh_s = median(fresh_s);
  out.session_s = median(session_s);
  out.speedup = median(ratio);

  const core::ReplayResult& reused = session.result();
  out.identical = reused.inject_time == fresh.inject_time &&
                  reused.arrive_time == fresh.arrive_time &&
                  reused.runtime == fresh.runtime;
  out.events = reused.events;
  return out;
}

int run(bool smoke) {
  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 16;
  app.iterations = smoke ? 1 : 4;
  const auto exec = core::run_execution(app, bench::enoc_spec(), {});
  const core::ReplayTrace rt(exec.trace);
  const int reps = smoke ? 21 : 31;

  std::vector<KindResult> results;
  results.push_back(measure("ideal", rt, bench::ideal_spec(1), reps));
  results.push_back(measure("enoc", rt, bench::enoc_spec(), reps));
  results.push_back(measure("onoc-token", rt, bench::onoc_token_spec(), reps));

  Table table("replay pass cost: fresh construction vs session reset/reuse");
  table.set_header({"network", "records", "fresh ms/pass", "reset ms/pass",
                    "speedup", "events/pass"});
  for (const KindResult& r : results) {
    table.add_row({r.name, std::to_string(rt.size()),
                   Table::fmt(r.fresh_s * 1e3, 3),
                   Table::fmt(r.session_s * 1e3, 3),
                   Table::fmt(r.speedup, 2), std::to_string(r.events)});
  }

  RunMetrics m = bench::bench_metrics(table, "BENCH_replay_session");
  m.manifest.set("trace", core::trace_id(rt));
  m.manifest.set("reps", static_cast<std::int64_t>(reps));
  {
    JsonWriter results_j;
    results_j.begin_object();
    results_j.key("table");
    write_table_json(results_j, table);
    results_j.key("networks");
    results_j.begin_array();
    for (const KindResult& r : results) {
      results_j.begin_object();
      results_j.key("network");
      results_j.value(r.name);
      results_j.key("fresh_pass_seconds");
      results_j.value(r.fresh_s);
      results_j.key("session_pass_seconds");
      results_j.value(r.session_s);
      results_j.key("speedup");
      results_j.value(r.speedup);
      results_j.key("events_per_pass");
      results_j.value(static_cast<std::uint64_t>(r.events));
      results_j.key("bit_identical");
      results_j.value(r.identical);
      results_j.end_object();
    }
    results_j.end_array();
    results_j.key("bars");
    results_j.begin_array();
    for (const KindResult& r : results) {
      results_j.begin_object();
      results_j.key("name");
      results_j.value("session_speedup_" + r.name);
      results_j.key("value");
      results_j.value(r.speedup);
      results_j.key("floor");
      results_j.value(1.0);
      results_j.end_object();
    }
    results_j.end_array();
    results_j.end_object();
    m.set_results_json(std::move(results_j).str());
  }
  bench::emit(table, "BENCH_replay_session", m);

  int rc = 0;
  for (const KindResult& r : results) {
    rc |= bench::verdict(r.identical,
                         r.name + ": session schedule bit-identical to fresh");
    rc |= bench::verdict(r.speedup >= 1.0,
                         r.name + ": reset pass no slower than fresh pass");
  }
  return rc;
}

}  // namespace
}  // namespace sctm

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return sctm::run(smoke);
}
