#include "core/driver.hpp"

#include <chrono>

#include "common/json.hpp"
#include "core/replay_session.hpp"
#include "trace/capture.hpp"
#include "trace/trace_io.hpp"
#include "tracestore/trace_store.hpp"

namespace sctm::core {
namespace {

double seconds_since(
    const std::chrono::steady_clock::time_point& t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

}  // namespace

std::string NetSpec::describe() const {
  return std::string(to_string(kind)) + " " + topo.describe();
}

namespace {

NetworkFactory make_base_factory(const NetSpec& spec) {
  switch (spec.kind) {
    case NetKind::kIdeal:
      return [spec](Simulator& sim) -> std::unique_ptr<noc::Network> {
        return std::make_unique<noc::IdealNetwork>(sim, "net", spec.topo,
                                                   spec.ideal);
      };
    case NetKind::kEnoc:
      return [spec](Simulator& sim) -> std::unique_ptr<noc::Network> {
        return std::make_unique<enoc::EnocNetwork>(sim, "net", spec.topo,
                                                   spec.enoc);
      };
    case NetKind::kOnocToken: {
      NetSpec s = spec;
      s.onoc.arbitration = onoc::Arbitration::kTokenRing;
      return [s](Simulator& sim) -> std::unique_ptr<noc::Network> {
        return std::make_unique<onoc::OnocNetwork>(sim, "net", s.topo, s.onoc);
      };
    }
    case NetKind::kOnocSetup: {
      NetSpec s = spec;
      s.onoc.arbitration = onoc::Arbitration::kPathSetup;
      return [s](Simulator& sim) -> std::unique_ptr<noc::Network> {
        return std::make_unique<onoc::OnocNetwork>(sim, "net", s.topo, s.onoc);
      };
    }
    case NetKind::kOnocSwmr: {
      NetSpec s = spec;
      s.onoc.arbitration = onoc::Arbitration::kSwmr;
      return [s](Simulator& sim) -> std::unique_ptr<noc::Network> {
        return std::make_unique<onoc::OnocNetwork>(sim, "net", s.topo, s.onoc);
      };
    }
    case NetKind::kHybrid:
      return [spec](Simulator& sim) -> std::unique_ptr<noc::Network> {
        return std::make_unique<onoc::HybridNetwork>(
            sim, "net", spec.topo, spec.enoc, spec.onoc, spec.hybrid);
      };
  }
  throw std::invalid_argument("make_factory: bad NetKind");
}

}  // namespace

NetworkFactory make_factory(const NetSpec& spec) {
  NetworkFactory build = make_base_factory(spec);
  // Inert fault specs wrap nothing: the factory — and everything it builds —
  // is exactly the pre-fault code path.
  if (!spec.fault.enabled()) return build;
  spec.fault.validate();
  const fault::FaultSpec fs = spec.fault;
  return [build = std::move(build), fs](Simulator& sim) {
    auto net = build(sim);
    net->install_fault_model(fs);
    return net;
  };
}

ExecutionRun run_execution(const fullsys::AppParams& app, const NetSpec& net,
                           const fullsys::FullSysParams& sys) {
  const auto t0 = std::chrono::steady_clock::now();
  Simulator sim;
  auto network = make_factory(net)(sim);
  fullsys::CmpSystem cmp(sim, "cmp", *network, net.topo, sys,
                         fullsys::build_app(app));
  trace::TraceCapture capture(cmp, app.name, net.describe(),
                              net.topo.node_count());
  ExecutionRun out;
  const double build_seconds = seconds_since(t0);
  out.runtime = cmp.run_to_completion();
  double finalize_seconds = 0;
  out.trace = std::move(capture).finalize(out.runtime, &finalize_seconds);
  out.trace.seed = app.seed;
  out.events = sim.events_executed();
  out.stats_report = sim.stats().report();
  out.stats = sim.stats();
  out.phases.push_back({"build", build_seconds, 0});
  out.phases.push_back({"execute", cmp.run_wall_seconds(), cmp.run_events()});
  out.phases.push_back({"finalize_trace", finalize_seconds, 0});
  out.wall_seconds = seconds_since(t0);
  return out;
}

ReplayRun run_replay(const ReplayTrace& rt, const NetSpec& net,
                     const ReplayConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  ReplayRun out;
  if (!rt.empty()) {
    ReplaySession session(rt, net, config);
    session.run();
    out.result = session.take_result();
  }
  for (const auto& it : out.result.iteration_log) {
    out.phases.push_back(
        {"iter " + std::to_string(it.iter), it.wall_seconds, it.events});
  }
  out.wall_seconds = seconds_since(t0);
  return out;
}

ReplayTrace load_replay_trace(const std::string& path) {
  if (trace::sniff_format(path) == trace::TraceFormat::kV2) {
    const tracestore::TraceReader reader =
        tracestore::TraceReader::open_file(path);
    return ReplayTrace::from_store(reader);
  }
  return ReplayTrace(trace::read_binary_file(path));
}

std::string trace_id(const ReplayTrace& rt) {
  return rt.app() + "@" + rt.capture_network() +
         "/seed=" + std::to_string(rt.seed()) +
         "/records=" + std::to_string(rt.size());
}

RunMetrics metrics_for_execution(const fullsys::AppParams& app,
                                 const NetSpec& net, const ExecutionRun& run,
                                 std::string tool, std::string created) {
  RunMetrics m;
  m.manifest.tool = std::move(tool);
  m.manifest.created = std::move(created);
  m.manifest.set("mode", "execution-driven");
  m.manifest.set("app", app.name);
  m.manifest.set("net", net.describe());
  m.manifest.set("cores", app.cores);
  m.manifest.set("lines_per_core", app.lines_per_core);
  m.manifest.set("iterations", app.iterations);
  m.manifest.set("seed", std::uint64_t{app.seed});
  // Fault regime echo (empty for inert specs, so fault-free documents are
  // byte-identical to pre-fault builds).
  for (const auto& [k, v] : net.fault.manifest_entries()) m.manifest.set(k, v);
  m.add_phases(run.phases);
  m.set_stats(run.stats);

  Histogram lat;
  for (const auto& r : run.trace.records) lat.add(r.latency());
  m.add_histogram("latency", lat);

  JsonWriter results;
  results.begin_object();
  results.key("runtime_cycles");
  results.value(std::uint64_t{run.runtime});
  results.key("messages");
  results.value(static_cast<std::uint64_t>(run.trace.records.size()));
  results.key("events");
  results.value(run.events);
  results.key("wall_seconds");
  results.value(run.wall_seconds);
  results.end_object();
  m.set_results_json(std::move(results).str());
  return m;
}

RunMetrics metrics_for_replay(const ReplayTrace& rt, const NetSpec& net,
                              const ReplayConfig& config, const ReplayRun& run,
                              std::string tool, std::string created) {
  RunMetrics m;
  m.manifest.tool = std::move(tool);
  m.manifest.created = std::move(created);
  m.manifest.set("mode", std::string("replay-") + to_string(config.mode));
  m.manifest.set("trace", trace_id(rt));
  m.manifest.set("net", net.describe());
  m.manifest.set("nodes", rt.nodes());
  if (config.mode != ReplayMode::kNaive) {
    m.manifest.set("dependency_window",
                   std::uint64_t{config.dependency_window});
    m.manifest.set("max_iterations", config.max_iterations);
  }
  for (const auto& [k, v] : net.fault.manifest_entries()) m.manifest.set(k, v);
  m.add_phases(run.phases);
  m.set_stats(run.result.stats);
  m.add_histogram("latency", run.result.latency_histogram());

  JsonWriter results;
  results.begin_object();
  results.key("runtime_cycles");
  results.value(std::uint64_t{run.result.runtime});
  results.key("messages");
  results.value(static_cast<std::uint64_t>(run.result.inject_time.size()));
  results.key("events");
  results.value(run.result.events);
  results.key("iterations");
  results.value(run.result.iterations);
  results.key("residual");
  results.value(run.result.residual);
  results.key("wall_seconds");
  results.value(run.wall_seconds);
  results.key("iteration_log");
  results.begin_array();
  for (const auto& it : run.result.iteration_log) {
    results.begin_object();
    results.key("iter");
    results.value(it.iter);
    results.key("residual");
    results.value(it.residual);
    results.key("events");
    results.value(it.events);
    results.key("wall_seconds");
    results.value(it.wall_seconds);
    results.end_object();
  }
  results.end_array();
  results.end_object();
  m.set_results_json(std::move(results).str());
  m.manifest.set("trace_content_hash", tracestore::hash_hex(rt.content_hash()));
  return m;
}

}  // namespace sctm::core
