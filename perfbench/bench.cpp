// perfbench: the repository benchmark. Three 16x16 workloads of the
// capture -> store -> replay -> explore pipeline, driven from a seed:
//
//   capture_enoc16     execution-driven fft on the ENoC, written as a v2
//                      container (fullsys + the tracestore writer)
//   replay_enoc16      load that container, replay it self-correcting on the
//                      ENoC at full window and at dependency_window = 2
//   explore_optical16  load it, then screened (top-3) and full exploration
//                      over six optical / hybrid candidates, 2 workers
//
// Every run sets up (captures) three times, makes one check pass over the
// whole pipeline — which runs the output checks, computes the simulated
// accuracy figures and gives every end-to-end metric at least one sample —
// and then repeats the workload's own operations for --seconds. Timings are
// medians. With --trace 1 the benchmark records spans around each layer call
// (in this file only; the library is not instrumented), runs per-layer
// probes, and reports per-layer metrics instead.
//
// The last line of stdout is the JSON result; everything before it is the
// human-readable report. Exit code 0 means the run completed (its `correct`
// field says whether every check passed); 2 means bad arguments; 3 means a
// build that must not be timed (Debug, unoptimized or sanitized).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analytic/model.hpp"
#include "analytic/screen.hpp"
#include "analytic/trace_profile.hpp"
#include "common/config.hpp"
#include "common/json.hpp"
#include "core/driver.hpp"
#include "core/explore.hpp"
#include "core/replay_session.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "trace/trace_io.hpp"
#include "tracestore/trace_store.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace sctm;
using perfbench::Metric;
using perfbench::Span;

constexpr std::int32_t kNodes = 256;           // 16x16
constexpr unsigned kExploreWorkers = 2;
constexpr std::size_t kScreenTopK = 3;
constexpr std::uint32_t kShortWindow = 2;
constexpr int kSetupReps = 3;   // setup_s is the median of these
constexpr int kProbeReps = 3;   // per-layer probes report medians of these
constexpr int kDiffReps = 5;    // paired passes per network differential
constexpr int kScoreReps = 50;  // analytic estimates per candidate

enum class Workload { kCapture, kReplay, kExplore };

struct Options {
  std::string workload;
  Workload kind = Workload::kCapture;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string config_dir = "perfbench";
  std::string workdir = ".bench_build/work";
  std::string commit = "unknown";
};

/// Why a build must not be timed; empty when it may.
std::string untimeable_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type == "Debug") return "CMAKE_BUILD_TYPE is Debug";
#ifndef __OPTIMIZE__
  return "built without optimization";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  return "";
}

double clock_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return perfbench::quantile(v, 0.5);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool delivered_all(const core::ReplayTrace& rt, const core::ReplayResult& r) {
  if (r.arrive_time.size() != rt.size()) return false;
  return std::none_of(r.arrive_time.begin(), r.arrive_time.end(),
                      [](Cycle c) { return c == kNoCycle; });
}

/// The replay numbers exploration reports per candidate.
struct CandidateOutcome {
  Cycle runtime = 0;
  double mean_latency = 0;
  Cycle p99 = 0;
  int iterations = 0;
  bool operator==(const CandidateOutcome&) const = default;
};

CandidateOutcome outcome(const core::ExploreResult& r) {
  return {r.runtime, r.mean_latency, r.p99_latency, r.iterations};
}

class Bench {
 public:
  explicit Bench(Options o) : o_(std::move(o)) {
    app_.name = "fft";
    app_.cores = kNodes;
    app_.lines_per_core = 16;
    app_.iterations = 2;
    app_.compute_per_line = 8;
    app_.seed = o_.seed;
    trace_path_ = o_.workdir + "/fft-" + std::to_string(o_.seed) + ".trc2";
    for (auto& c : load_specs("fabrics.cfg")) fabrics_.emplace(c.name, c.spec);
    candidates_ = load_specs("candidates.cfg");
    sctm_.mode = core::ReplayMode::kSelfCorrecting;
    window_ = sctm_;
    window_.dependency_window = kShortWindow;
    naive_.mode = core::ReplayMode::kNaive;
  }

  void run();

 private:
  // -- accounting ---------------------------------------------------------
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "perfbench: check failed: " << what << '\n';
    }
  }

  /// Times one layer call inside a span; counts it as an attempted
  /// operation (exceptions propagate to the caller, which counts them).
  template <typename F>
  double timed(const char* span, F&& f) {
    ++attempted_;
    Span s(spans_, span);
    const double t0 = clock_s();
    f();
    last_s_ = clock_s() - t0;
    return last_s_;
  }

  void sample(const std::string& metric, double v) {
    samples_[static_cast<int>(phase_)][metric].push_back(v);
  }

  /// A metric's samples from the workload loop; from the check pass, then
  /// set-up, for stages the loop does not repeat. The check pass also warms
  /// every stage up, so the loop's samples exclude first-call costs.
  const std::vector<double>& samples_of(const std::string& metric) const {
    for (const Phase p : {Phase::kLoop, Phase::kCheck, Phase::kSetup}) {
      const auto& bucket = samples_[static_cast<int>(p)];
      if (const auto it = bucket.find(metric); it != bucket.end()) {
        return it->second;
      }
    }
    throw std::logic_error("perfbench: no samples of " + metric);
  }

  std::vector<core::Candidate> load_specs(const std::string& file) {
    const std::string path = o_.config_dir + "/" + file;
    auto specs = core::candidates_from_config(Config::from_file(path), path);
    for (const auto& c : specs) {
      check(c.spec.topo.node_count() == kNodes,
            path + ": '" + c.name + "' is not a 256-node fabric");
    }
    return specs;
  }

  const core::NetSpec& fabric(const std::string& name) const {
    return fabrics_.at(name);
  }

  /// The networks a workload replays on (per-layer probes sum over them).
  std::vector<core::Candidate> targets() const {
    if (o_.kind == Workload::kExplore) return candidates_;
    return {{"enoc", fabric("enoc")}};
  }

  // -- layer calls --------------------------------------------------------
  struct Capture {
    core::ExecutionRun run;
    double seconds = 0;
    double write_s = 0;
  };
  Capture capture();
  core::ReplayTrace load();
  core::ReplayResult replay(const core::ReplayTrace& rt,
                            const core::ReplayConfig& cfg, const char* metric);
  std::vector<core::ExploreResult> explore(const core::ReplayTrace& rt,
                                           std::size_t top_k);
  void run_references();

  // -- phases -------------------------------------------------------------
  void setup();
  void check_pass();
  void cycle();
  void probe_layers(const core::ReplayTrace& rt);
  void check_load(const core::ReplayTrace& rt);
  void check_explore(const std::vector<core::ExploreResult>& res,
                     bool screened);
  void report_end_to_end();
  void report_layers();

  Options o_;
  perfbench::Spans spans_;
  perfbench::Digest digest_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;

  fullsys::AppParams app_;
  fullsys::FullSysParams sys_;
  std::map<std::string, core::NetSpec> fabrics_;
  std::vector<core::Candidate> candidates_;
  core::ReplayConfig sctm_;
  core::ReplayConfig window_;
  core::ReplayConfig naive_;
  std::string trace_path_;

  enum class Phase { kSetup, kCheck, kLoop };
  Phase phase_ = Phase::kSetup;
  std::map<std::string, std::vector<double>> samples_[3];  // by Phase
  double last_s_ = 0;  // duration of the latest timed() call
  std::map<std::string, Metric> metrics_;

  // Simulated results of the check pass; the workload loop must reproduce
  // them exactly.
  std::uint64_t capture_hash_ = 0;
  Cycle capture_runtime_ = 0;
  std::uint64_t capture_events_ = 0;
  std::uint64_t capture_records_ = 0;
  std::map<std::string, Cycle> references_;  // exec-driven runtimes
  std::map<std::string, CandidateOutcome> serial_;
  std::map<std::string, core::ExploreResult> screened_;
  Cycle replay_runtime_ = 0;
  Cycle window_runtime_ = 0;
  int window_iterations_ = 0;
  core::ReplayResult enoc_replay_;        // full-window ENoC, stats included
  core::ReplayResult token_replay_;       // onoc-token serial, stats included
  std::vector<core::ExploreResult> last_full_;  // latest full exploration
  double last_full_s_ = 0;
  double top3_recall_ = 0;
  std::vector<double> cycle_traced_;
  std::vector<double> cycle_untraced_;
};

Bench::Capture Bench::capture() {
  Capture c;
  const double exec_s = timed("fullsys.run_execution", [&] {
    c.run = core::run_execution(app_, fabric("enoc"), sys_);
  });
  c.write_s = timed("tracestore.write_v2", [&] {
    trace::write_file(c.run.trace, trace_path_, trace::TraceFormat::kV2);
  });
  c.seconds = exec_s + c.write_s;
  const std::uint64_t hash = tracestore::content_hash(c.run.trace);
  check(c.run.trace.nodes == kNodes, "capture has 256 nodes");
  if (capture_hash_ == 0) {
    capture_hash_ = hash;
    capture_runtime_ = c.run.runtime;
    capture_events_ = c.run.events;
    capture_records_ = c.run.trace.records.size();
    digest_.add(hash);
    digest_.add(c.run.runtime);
    digest_.add(c.run.events);
    digest_.add(capture_records_);
    digest_.add(c.run.stats_report);
  } else {
    check(hash == capture_hash_ && c.run.runtime == capture_runtime_ &&
              c.run.events == capture_events_,
          "repeated capture is identical");
  }
  sample("capture_s", c.seconds);
  sample("fullsys.execute_s",
         perfbench::phase(c.run.phases, "execute").wall_seconds);
  sample("trace.finalize_s",
         perfbench::phase(c.run.phases, "finalize_trace").wall_seconds);
  sample("tracestore.encode_s", c.write_s);
  return c;
}

core::ReplayTrace Bench::load() {
  core::ReplayTrace rt;
  sample("load_s", timed("core.load_replay_trace", [&] {
           rt = core::load_replay_trace(trace_path_);
         }));
  check_load(rt);
  return rt;
}

void Bench::check_load(const core::ReplayTrace& rt) {
  check(rt.content_hash() == capture_hash_,
        "v2 content hash round-trips through write and load");
  check(rt.nodes() == kNodes && rt.size() == capture_records_,
        "loaded trace has 256 nodes and every captured record");
}

/// Replays `rt` on the capture network (ENoC) and samples `metric`.
core::ReplayResult Bench::replay(const core::ReplayTrace& rt,
                                 const core::ReplayConfig& cfg,
                                 const char* metric) {
  core::ReplayRun run;
  sample(metric, timed("core.run_replay", [&] {
           run = core::run_replay(rt, fabric("enoc"), cfg);
         }));
  check(delivered_all(rt, run.result),
        std::string(metric) + ": every record is delivered");
  return std::move(run.result);
}

std::vector<core::ExploreResult> Bench::explore(const core::ReplayTrace& rt,
                                                std::size_t top_k) {
  core::ExploreConfig cfg;
  cfg.replay = sctm_;
  cfg.threads = kExploreWorkers;
  cfg.screen_top_k = top_k;
  std::vector<core::ExploreResult> res;
  const double s = timed(top_k ? "analytic.explore_screened" : "core.explore",
                         [&] {
                           res = top_k ? analytic::explore_screened(
                                             rt, candidates_, cfg)
                                       : core::explore(rt, candidates_, cfg);
                         });
  sample(top_k ? "explore_s" : "explore_full_s", s);
  if (top_k == 0) {
    last_full_ = res;
    last_full_s_ = s;
  }
  check(res.size() == candidates_.size(), "exploration ranks every candidate");
  return res;
}

void Bench::run_references() {
  for (const char* name : {"onoc-token", "onoc-swmr", "hybrid"}) {
    core::ExecutionRun run;
    timed("fullsys.run_execution", [&] {
      run = core::run_execution(app_, fabric(name), sys_);
    });
    const auto [it, fresh] = references_.emplace(name, run.runtime);
    check(fresh || it->second == run.runtime,
          std::string("repeated reference on ") + name + " is identical");
  }
}

void Bench::setup() {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Span s(spans_, "bench.setup");
    const double t0 = clock_s();
    capture();
    if (o_.kind == Workload::kExplore) run_references();
    sample("setup_s", clock_s() - t0);
  }
}

void Bench::check_pass() {
  Span s(spans_, "bench.check");
  const core::ReplayTrace rt = load();

  // The paper's fixed point: full-window SCTM replay on the capture network
  // reproduces the captured runtime and schedule exactly.
  const auto full = replay(rt, sctm_, "replay_s");
  bool same = full.runtime == rt.capture_runtime() &&
              full.inject_time.size() == rt.size();
  for (std::uint32_t i = 0; same && i < rt.size(); ++i) {
    same = full.inject_time[i] == rt.inject_time(i) &&
           full.arrive_time[i] == rt.arrive_time(i);
  }
  check(same, "full-window SCTM replay on the capture network reproduces "
              "the captured runtime and schedule");
  enoc_replay_ = full;
  replay_runtime_ = full.runtime;
  digest_.add(full.runtime);
  digest_.add(full.events);
  digest_.add(full.stats.report());

  const auto win = replay(rt, window_, "replay_window_s");
  window_runtime_ = win.runtime;
  window_iterations_ = win.iterations;
  digest_.add(win.runtime);
  digest_.add(static_cast<std::uint64_t>(win.iterations));
  digest_.add(win.events);

  // Each candidate replayed serially, one session each: the reference the
  // 2-worker exploration must match.
  for (const auto& c : candidates_) {
    timed("core.ReplaySession", [&] {
      core::ReplaySession session(rt, c.spec, sctm_);
      check(session.network().node_count() == kNodes,
            c.name + ": replay network has 256 nodes");
      const core::ReplayResult& r = session.run();
      check(delivered_all(rt, r), c.name + ": every record is delivered");
      const Histogram h = r.latency_histogram();
      serial_[c.name] = {r.runtime, h.mean(), h.percentile(0.99),
                         r.iterations};
      if (c.name == "onoc-token") token_replay_ = r;
    });
    const auto& o = serial_[c.name];
    digest_.add(c.name);
    digest_.add(o.runtime);
    digest_.add(o.mean_latency);
    digest_.add(o.p99);
  }

  const auto screened = explore(rt, kScreenTopK);
  check_explore(screened, true);
  for (const auto& r : screened) {
    screened_[r.name] = r;
    digest_.add(r.name);
    digest_.add(static_cast<std::uint64_t>(r.analytic_rank));
    digest_.add(r.est_runtime);
    digest_.add(static_cast<std::uint64_t>(r.replayed));
  }
  const auto full_x = explore(rt, 0);
  check_explore(full_x, false);

  if (references_.empty()) run_references();
  double err = 0;
  for (const auto& [name, truth] : references_) {
    digest_.add(truth);
    err += std::fabs(static_cast<double>(serial_.at(name).runtime) -
                     static_cast<double>(truth)) /
           static_cast<double>(truth);
  }
  metrics_["sctm_err_pct"] = {
      100.0 * err / static_cast<double>(references_.size()), "%"};

  double screen_err = 0;
  std::set<std::string> replay_top;
  std::set<std::string> analytic_top;
  for (std::size_t i = 0; i < full_x.size(); ++i) {
    const auto& est = screened_.at(full_x[i].name);
    screen_err += std::fabs(est.est_runtime -
                            static_cast<double>(full_x[i].runtime)) /
                  static_cast<double>(full_x[i].runtime);
    if (i < kScreenTopK) replay_top.insert(full_x[i].name);
    if (est.analytic_rank >= 1 && est.analytic_rank <= kScreenTopK) {
      analytic_top.insert(est.name);
    }
  }
  metrics_["screen_err_pct"] = {
      100.0 * screen_err / static_cast<double>(full_x.size()), "%"};
  std::size_t hits = 0;
  for (const auto& n : analytic_top) hits += replay_top.count(n);
  top3_recall_ = static_cast<double>(hits) / static_cast<double>(kScreenTopK);
}

void Bench::check_explore(const std::vector<core::ExploreResult>& res,
                          bool screened) {
  for (const auto& r : res) {
    if (!r.replayed) continue;
    const auto it = serial_.find(r.name);
    check(it != serial_.end() && it->second == outcome(r),
          r.name + ": " + (screened ? "screened" : "full") +
              " exploration with 2 workers matches the serial replay");
  }
  if (screened) {
    const auto n = std::count_if(res.begin(), res.end(),
                                 [](const auto& r) { return r.replayed; });
    check(static_cast<std::size_t>(n) == kScreenTopK,
          "the screen confirms exactly its top 3");
    for (const auto& r : res) {
      if (const auto it = screened_.find(r.name); it != screened_.end()) {
        check(it->second.est_runtime == r.est_runtime &&
                  it->second.analytic_rank == r.analytic_rank,
              r.name + ": the analytic screen is deterministic");
      }
    }
  }
}

void Bench::cycle() {
  double task = 0;  // the workload's own stages, load excluded
  switch (o_.kind) {
    case Workload::kCapture: {
      task = capture().seconds;
      load();  // the round-trip check of what was just written
      break;
    }
    case Workload::kReplay: {
      const core::ReplayTrace rt = load();
      check(replay(rt, sctm_, "replay_s").runtime == replay_runtime_,
            "full-window replay is deterministic");
      task = last_s_;
      const auto win = replay(rt, window_, "replay_window_s");
      task += last_s_;
      check(win.runtime == window_runtime_ &&
                win.iterations == window_iterations_,
            "windowed replay is deterministic");
      break;
    }
    case Workload::kExplore: {
      const core::ReplayTrace rt = load();
      check_explore(explore(rt, kScreenTopK), true);
      task = last_s_;
      check_explore(explore(rt, 0), false);
      task += last_s_;
      break;
    }
  }
  sample("task_s", task);
}

void Bench::probe_layers(const core::ReplayTrace& rt) {
  Span top(spans_, "bench.probe");
  auto med = [](int reps, const std::function<double()>& f) {
    std::vector<double> v;
    for (int i = 0; i < reps; ++i) v.push_back(f());
    return median(v);
  };
  auto put = [&](const std::string& name, double v, const char* unit) {
    metrics_[name] = {v, unit};
  };

  // tracestore decode and core ingest: the two halves of load_s.
  trace::Trace decoded;
  double bytes = 0;
  put("tracestore.decode_s", med(kProbeReps, [&] {
        return timed("tracestore.read_all", [&] {
          const auto reader = tracestore::TraceReader::open_file(trace_path_);
          decoded = reader.read_all();
          bytes = static_cast<double>(reader.file_bytes());
        });
      }), "s");
  put("tracestore.bytes_per_record",
      bytes / static_cast<double>(decoded.records.size()), "B");
  put("core.ingest_s", med(kProbeReps, [&] {
        return timed("core.ReplayTrace", [&] { core::ReplayTrace r(decoded); });
      }), "s");
  put("core.kept_deps_s", med(kProbeReps, [&] {
        return timed("core.build_kept_deps",
                     [&] { (void)core::build_kept_deps(rt, sctm_); });
      }), "s");

  // Session construction, network construction and passes over the
  // workload's own target networks (summed).
  double build = 0, netbuild = 0, pass = 0;
  std::uint64_t events = 0;
  for (const auto& t : targets()) {
    build += med(kProbeReps, [&] {
      return timed("core.ReplaySession",
                   [&] { core::ReplaySession s(rt, t.spec, sctm_); });
    });
    netbuild += med(kProbeReps, [&] {
      Simulator sim;
      const auto factory = core::make_factory(t.spec);
      return timed("noc.make_factory", [&] { (void)factory(sim); });
    });
    core::ReplaySession session(rt, t.spec, sctm_);
    check(session.network().node_count() == kNodes,
          t.name + ": probe network has 256 nodes");
    pass += med(kProbeReps, [&] {
      return timed("core.run_pass", [&] { session.run_pass(); });
    });
    events += session.result().events;
  }
  put("core.session_build_s", build, "s");
  put("noc.build_s", netbuild, "s");
  put("core.pass_s", pass, "s");
  put("sim.events_per_pass", static_cast<double>(events), "count");
  put("sim.ns_per_event", 1e9 * pass / static_cast<double>(events), "ns");

  // Network differentials: a naive pass on each fabric minus a naive pass on
  // the ideal network isolates the fabric; the SCTM pass minus the naive
  // pass, both on ideal, isolates the replay engine's dependency work. Each
  // difference pairs two passes run back to back, so host-speed drift
  // between them mostly cancels; the median over kDiffReps pairs is kept.
  core::ReplaySession ideal(rt, fabric("ideal"), naive_);
  auto diff_s = [&](const core::NetSpec& spec, const core::ReplayConfig& cfg,
                    const char* span) {
    core::ReplaySession session(rt, spec, cfg);
    check(session.network().node_count() == kNodes,
          std::string(span) + ": probe network has 256 nodes");
    return med(kDiffReps, [&] {
      const double base = timed("sim.ideal_pass", [&] { ideal.run_pass(); });
      return timed(span, [&] { session.run_pass(); }) - base;
    });
  };
  put("core.engine_s", diff_s(fabric("ideal"), sctm_, "core.engine_pass"),
      "s");
  const double enoc_net = diff_s(fabric("enoc"), naive_, "enoc.naive_pass");
  put("enoc.net_s", enoc_net, "s");
  for (const auto& [metric, net] : {std::pair{"onoc.net_s.token", "onoc-token"},
                                    {"onoc.net_s.swmr", "onoc-swmr"},
                                    {"onoc.net_s.hybrid", "hybrid"}}) {
    put(metric, diff_s(fabric(net), naive_, "onoc.naive_pass"), "s");
  }

  // Rebinding one session through the candidate sequence, as an
  // exploration worker does.
  put("core.rebind_s", med(kProbeReps, [&] {
        core::ReplaySession session(rt, candidates_.front().spec, sctm_);
        double total = 0;
        for (std::size_t i = 1; i <= candidates_.size(); ++i) {
          const auto& spec = candidates_[i % candidates_.size()].spec;
          total += timed("core.rebind", [&] { session.rebind(spec); });
        }
        return total;
      }), "s");

  double cand_max = 0, cand_sum = 0;
  for (const auto& r : last_full_) {
    cand_max = std::max(cand_max, r.wall_seconds);
    cand_sum += r.wall_seconds;
  }
  put("core.candidate_s.max", cand_max, "s");
  put("core.explore_worker_util", cand_sum / (kExploreWorkers * last_full_s_),
      "ratio");

  analytic::TraceProfile profile;
  put("analytic.profile_s", med(kProbeReps, [&] {
        return timed("analytic.profile_trace",
                     [&] { profile = analytic::profile_trace(rt); });
      }), "s");
  std::vector<double> per_candidate;
  for (const auto& c : candidates_) {
    const auto model = analytic::make_model(c.spec);
    double sink = 0;
    const double s = timed("analytic.estimate", [&] {
      for (int i = 0; i < kScoreReps; ++i) {
        sink += model->estimate(profile).est_runtime;
      }
    });
    check(sink > 0, c.name + ": analytic estimate is positive");
    per_candidate.push_back(1e6 * s / kScoreReps);
  }
  put("analytic.score_us", median(per_candidate), "us");
  put("analytic.top3_recall", top3_recall_, "share");

  // Simulated counts from the stat snapshots the library returns.
  const auto& es = enoc_replay_.stats;
  const auto xbar = perfbench::sum_counters(es, "xbar_traversals");
  put("enoc.xbar_traversals", static_cast<double>(xbar), "count");
  put("enoc.sa_grants",
      static_cast<double>(perfbench::sum_counters(es, "sa_grants")), "count");
  put("enoc.va_grants",
      static_cast<double>(perfbench::sum_counters(es, "va_grants")), "count");
  put("enoc.buffer_writes",
      static_cast<double>(perfbench::sum_counters(es, "buffer_writes")),
      "count");
  put("enoc.ns_per_xbar", 1e9 * enoc_net / static_cast<double>(xbar), "ns");
  put("onoc.transmissions",
      static_cast<double>(
          perfbench::sum_counters(token_replay_.stats, "transmissions")),
      "count");
  put("onoc.arb_wait_mean",
      perfbench::merged_mean(token_replay_.stats, "arb_wait"), "cycles");
  put("core.iterations", static_cast<double>(window_iterations_), "count");
}

void Bench::run() {
  spans_.set_enabled(o_.trace);
  setup();
  phase_ = Phase::kCheck;
  check_pass();
  phase_ = Phase::kLoop;

  const double t_end = clock_s() + o_.seconds;
  std::uint64_t n = 0;
  do {
    const bool traced = o_.trace && n % 2 == 0;
    spans_.set_enabled(traced);
    const double t0 = clock_s();
    try {
      Span s(spans_, "bench.cycle");
      cycle();
    } catch (const std::exception& e) {
      ++failed_;
      std::cerr << "perfbench: operation failed: " << e.what() << '\n';
    }
    (traced ? cycle_traced_ : cycle_untraced_).push_back(clock_s() - t0);
    ++n;
  } while (clock_s() < t_end);
  spans_.set_enabled(o_.trace);
  phase_ = Phase::kCheck;

  if (o_.trace) {
    const core::ReplayTrace rt = load();
    probe_layers(rt);
    for (const char* name :
         {"capture_s", "replay_s", "replay_window_s", "explore_s",
          "explore_full_s", "fullsys.execute_s", "trace.finalize_s",
          "tracestore.encode_s"}) {
      metrics_[name] = {median(samples_of(name)), "s"};
    }
    metrics_["fullsys.events"] = {static_cast<double>(capture_events_),
                                  "count"};
    metrics_["fullsys.ns_per_event"] = {
        1e9 * metrics_["fullsys.execute_s"].value /
            static_cast<double>(capture_events_),
        "ns"};
    report_layers();
  } else {
    report_end_to_end();
  }

  std::cout << "digest " << o_.workload << ' ' << digest_.hex() << '\n';
  std::cout << "operations attempted=" << attempted_ << " failed=" << failed_
            << " error_rate="
            << static_cast<double>(failed_) / static_cast<double>(attempted_)
            << '\n';

  // The result carries exactly the metrics of this mode.
  static const std::set<std::string> kEndToEnd = {
      "setup_s",      "load_s",         "task_s",
      "sctm_err_pct", "screen_err_pct", "peak_rss_mb"};
  std::map<std::string, Metric> out;
  for (const auto& [name, m] : metrics_) {
    if (kEndToEnd.count(name) != (o_.trace ? 0u : 1u)) continue;
    out[name] = m;
  }
  std::cout << perfbench::result_json(failed_ == 0, attempted_, failed_, out)
            << std::endl;
}

void Bench::report_end_to_end() {
  const double err = metrics_.at("sctm_err_pct").value;
  // The end-to-end timings first, then each stage the run timed (stages the
  // workload loop does not repeat have the check pass's single sample).
  for (const char* name :
       {"setup_s", "load_s", "task_s", "capture_s", "replay_s",
        "replay_window_s", "explore_s", "explore_full_s"}) {
    const auto s = perfbench::summarize(samples_of(name));
    std::printf("%-16s %10.4f s  median of n=%zu  q1=%.4f q3=%.4f", name,
                s.median, s.n, s.q1, s.q3);
    if (s.tail_pct > 0) std::printf("  p%.0f=%.4f", s.tail_pct, s.tail);
    std::printf("  | sctm_err_pct=%.2f\n", err);
  }
  metrics_["setup_s"] = {
      median(samples_[static_cast<int>(Phase::kSetup)].at("setup_s")), "s"};
  for (const char* name : {"load_s", "task_s"}) {
    metrics_[name] = {
        median(samples_[static_cast<int>(Phase::kLoop)].at(name)), "s"};
  }
  metrics_["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  std::printf("%-16s %10.2f %%  (simulated)\n", "sctm_err_pct", err);
  std::printf("%-16s %10.2f %%  (simulated)\n", "screen_err_pct",
              metrics_.at("screen_err_pct").value);
  std::printf("%-16s %10.1f MB\n", "peak_rss_mb",
              metrics_.at("peak_rss_mb").value);
}

void Bench::report_layers() {
  for (const auto& [name, m] : metrics_) {
    std::printf("%-28s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  // Shares of the stage timings the per-layer metrics should move. A stage
  // the workload loop does not repeat has one cold sample (n=1), so its
  // shares are indicative only.
  auto m = [&](const char* n) { return metrics_.at(n).value; };
  auto share = [&](const char* layer, const char* of, double part) {
    const auto& v = samples_of(of);
    std::printf("share %-24s of %-16s %6.1f %%  (n=%zu)\n", layer, of,
                100.0 * part / median(v), v.size());
  };
  share("fullsys.execute_s", "capture_s", m("fullsys.execute_s"));
  share("tracestore.encode_s", "capture_s", m("tracestore.encode_s"));
  share("tracestore.decode_s", "load_s", m("tracestore.decode_s"));
  share("core.ingest_s", "load_s", m("core.ingest_s"));
  share("enoc.net_s", "replay_s", m("enoc.net_s"));
  share("core.engine_s", "replay_s", m("core.engine_s"));
  // Exploration runs on two workers, so its layers are compared with the
  // workers' busy time (the sum of candidate wall times), each candidate
  // charged the differential of its network kind.
  double busy = 0, onoc = 0, enoc = 0;
  for (const auto& r : last_full_) busy += r.wall_seconds;
  for (const auto& c : candidates_) {
    switch (c.spec.kind) {
      case core::NetKind::kOnocToken: onoc += m("onoc.net_s.token"); break;
      case core::NetKind::kOnocSwmr: onoc += m("onoc.net_s.swmr"); break;
      case core::NetKind::kHybrid: onoc += m("onoc.net_s.hybrid"); break;
      case core::NetKind::kEnoc: enoc += m("enoc.net_s"); break;
      default: break;
    }
  }
  const double engine =
      m("core.engine_s") * static_cast<double>(candidates_.size());
  for (const auto& [layer, part] : {std::pair{"onoc.net_s.*", onoc},
                                    {"core.engine_s", engine},
                                    {"enoc.net_s", enoc}}) {
    std::printf("share %-24s of %-16s %6.1f %%  (of the workers' busy time)\n",
                layer, "explore_full_s", 100.0 * part / busy);
  }

  const auto& spans = spans_.records();
  for (const auto& [module, self] : perfbench::self_by_module(spans)) {
    std::printf("self %-12s %10.4f s\n", module.c_str(), self);
  }
  if (!cycle_traced_.empty() && !cycle_untraced_.empty()) {
    std::printf("tracing overhead %+.4f s per cycle "
                "(traced %.4f, untraced %.4f)\n",
                median(cycle_traced_) - median(cycle_untraced_),
                median(cycle_traced_), median(cycle_untraced_));
  }
  const std::string path =
      o_.workdir + "/spans-" + o_.workload + "-" + std::to_string(o_.seed) +
      ".json";
  perfbench::write_spans_json(spans, path);
  std::printf("spans %zu written to %s\n", spans.size(), path.c_str());
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload capture_enoc16|replay_enoc16|"
               "explore_optical16 --seed N --seconds S --trace 0|1\n"
               "                 [--config-dir DIR] [--workdir DIR] "
               "[--commit ID]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--config-dir") {
        o.config_dir = v;
      } else if (a == "--workdir") {
        o.workdir = v;
      } else if (a == "--commit") {
        o.commit = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workload == "capture_enoc16") o.kind = Workload::kCapture;
  else if (o.workload == "replay_enoc16") o.kind = Workload::kReplay;
  else if (o.workload == "explore_optical16") o.kind = Workload::kExplore;
  else usage("unknown workload " + o.workload);
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (const std::string why = untimeable_build(); !why.empty()) {
    std::cerr << "perfbench: refusing to time this build: " << why << '\n';
    return 3;
  }
  JsonWriter w;
  w.begin_object();
  w.key("workload");
  w.value(o.workload);
  w.key("seed");
  w.value(o.seed);
  w.key("seconds");
  w.value(o.seconds);
  w.key("trace");
  w.value(o.trace);
  w.key("hardware_threads");
  w.value(std::thread::hardware_concurrency());
  w.key("compiler");
#if defined(__clang__)
  w.value("clang " __clang_version__);
#else
  w.value("gcc " __VERSION__);
#endif
  w.key("build_type");
  w.value(PERFBENCH_BUILD_TYPE);
  w.key("commit");
  w.value(o.commit);
  w.key("explore_workers");
  w.value(kExploreWorkers);
  w.key("replay_threads");
  w.value(core::ReplayConfig{}.threads);
  w.end_object();
  std::cout << "manifest " << std::move(w).str() << '\n';
  try {
    Bench(o).run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
