#include "core/experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace sctm::core {

namespace {

/// "net config[:line]: " prefix for topology-key errors (line available only
/// when the config was parsed from text).
std::string at(const Config& cfg, const std::string& key) {
  if (const auto line = cfg.source_line(key)) {
    return "net config:" + std::to_string(*line) + ": ";
  }
  return "net config: ";
}

constexpr Spelling<ExperimentMode> kExperimentModeNames[] = {
    {ExperimentMode::kExec, "exec"},
    {ExperimentMode::kReplay, "replay"},
    {ExperimentMode::kAccuracy, "accuracy"},
};

/// replay.mode spells the self-correcting model "sctm".
constexpr Spelling<ReplayMode> kReplayModeNames[] = {
    {ReplayMode::kNaive, "naive"},
    {ReplayMode::kSelfCorrecting, "sctm"},
};

/// An integer key that must be at least `min`, rejected naming key and line.
int at_least(const Config& cfg, const char* key, int def, int min) {
  const int v = cfg.get_as(key, def);
  if (v < min) {
    cfg.reject(key, std::to_string(v) + " is below " + std::to_string(min));
  }
  return v;
}

}  // namespace

noc::Topology topology_from_config(const Config& cfg) {
  const std::string kind = cfg.get_string("net.topology", "mesh");
  const int w = at_least(cfg, "net.mesh_width", 4, 1);
  const int h = at_least(cfg, "net.mesh_height", 4, 1);
  if (kind == "mesh") return noc::Topology::mesh(w, h);
  if (kind == "torus") return noc::Topology::torus(w, h);
  if (kind == "ring") {
    return noc::Topology::ring(at_least(cfg, "net.ring_nodes", w * h, 2));
  }
  if (kind == "mesh3d" || kind == "torus3d") {
    const int d = at_least(cfg, "net.mesh_depth", 2, 1);
    return kind == "mesh3d" ? noc::Topology::mesh3d(w, h, d)
                            : noc::Topology::torus3d(w, h, d);
  }
  if (kind == "file") {
    const std::string path = cfg.get_string("net.topology.file");
    try {
      return noc::Topology::from_file(path);
    } catch (const std::exception& e) {
      throw std::runtime_error(at(cfg, "net.topology.file") +
                               "net.topology.file: " + e.what());
    }
  }
  throw std::runtime_error(at(cfg, "net.topology") +
                           "net.topology: unknown kind '" + kind +
                           "' (known: mesh, torus, ring, mesh3d, torus3d, "
                           "file)");
}

NetSpec netspec_from_config(const Config& cfg, const std::string& which) {
  NetSpec spec;
  spec.kind = cfg.get_enum(which + ".kind", kNetKindNames).value_or(spec.kind);
  spec.topo = topology_from_config(cfg);
  spec.ideal.base_latency =
      cfg.get_as("ideal.base_latency", spec.ideal.base_latency);
  spec.ideal.per_hop_latency =
      cfg.get_as("ideal.per_hop_latency", spec.ideal.per_hop_latency);
  spec.enoc = enoc::EnocParams::from_config(cfg);
  spec.onoc = onoc::OnocParams::from_config(cfg);
  spec.hybrid.distance_threshold =
      cfg.get_as("hybrid.distance_threshold", spec.hybrid.distance_threshold);
  spec.hybrid.size_threshold =
      cfg.get_as("hybrid.size_threshold", spec.hybrid.size_threshold);
  spec.fault = fault::FaultSpec::from_config(cfg);
  return spec;
}

fullsys::AppParams app_from_config(const Config& cfg) {
  fullsys::AppParams app;
  app.name = cfg.get_string("app.name", "fft");
  const std::vector<std::string> names = fullsys::app_names();
  if (std::find(names.begin(), names.end(), app.name) == names.end()) {
    std::string known;
    for (const std::string& n : names) known += (known.empty() ? "" : ", ") + n;
    cfg.reject("app.name",
               "unknown value '" + app.name + "' (known: " + known + ")");
  }
  app.cores = at_least(cfg, "app.cores", 16, 2);
  app.lines_per_core = at_least(cfg, "app.lines_per_core", 16, 1);
  app.iterations = at_least(cfg, "app.iterations", 2, 1);
  app.compute_per_line = cfg.get_as("app.compute_per_line", 8);
  app.seed = cfg.get_as("app.seed", std::uint64_t{1});
  return app;
}

ReplayConfig replay_from_config(const Config& cfg) {
  ReplayConfig rc;
  rc.mode = cfg.get_enum("replay.mode", kReplayModeNames).value_or(rc.mode);
  rc.dependency_window = cfg.get_as("replay.window", rc.dependency_window);
  rc.max_iterations = cfg.get_as("replay.max_iterations", rc.max_iterations);
  if (rc.max_iterations < 1) {
    cfg.reject("replay.max_iterations",
               std::to_string(rc.max_iterations) +
                   " is below 1 (a replay runs at least one pass)");
  }
  return rc;
}

Experiment experiment_from_config(const Config& cfg) {
  Experiment e;
  e.mode = cfg.get_enum("experiment.mode", kExperimentModeNames)
               .value_or(e.mode);
  e.app = app_from_config(cfg);
  e.sys = fullsys::FullSysParams::from_config(cfg);
  e.capture = netspec_from_config(cfg, "capture");
  e.target = netspec_from_config(cfg, "target");
  e.replay = replay_from_config(cfg);
  cfg.reject_unread("");
  return e;
}

Table run_experiment(const Config& cfg) {
  const Experiment e = experiment_from_config(cfg);
  const auto& app = e.app;
  const auto& sys = e.sys;
  const auto& target = e.target;

  if (e.mode == ExperimentMode::kExec) {
    const auto exec = run_execution(app, target, sys);
    const auto s = summarize(exec.trace);
    Table t("exec: " + app.name + " on " + target.describe());
    t.set_header({"metric", "value"});
    t.add_row({"runtime (cycles)", Table::fmt(static_cast<std::uint64_t>(
                                       exec.runtime))});
    t.add_row({"messages", Table::fmt(static_cast<std::uint64_t>(
                               exec.trace.records.size()))});
    t.add_row({"latency mean", Table::fmt(s.mean_latency, 2)});
    t.add_row({"latency p99", Table::fmt(static_cast<std::uint64_t>(
                                  s.p99_latency))});
    t.add_row({"wall seconds", Table::fmt(exec.wall_seconds, 4)});
    return t;
  }

  const auto& capture_spec = e.capture;
  const ReplayTrace capture(run_execution(app, capture_spec, sys).trace);

  if (e.mode == ExperimentMode::kReplay) {
    const auto& rc = e.replay;
    const auto rep = run_replay(capture, target, rc);
    const auto s = summarize(rep.result);
    Table t("replay: " + app.name + " (" + capture_spec.describe() + " -> " +
            target.describe() + ", " + to_string(rc.mode) + ")");
    t.set_header({"metric", "value"});
    t.add_row({"runtime (cycles)",
               Table::fmt(static_cast<std::uint64_t>(s.runtime))});
    t.add_row({"latency mean", Table::fmt(s.mean_latency, 2)});
    t.add_row({"latency p99", Table::fmt(static_cast<std::uint64_t>(
                                  s.p99_latency))});
    t.add_row({"iterations",
               Table::fmt(static_cast<std::int64_t>(rep.result.iterations))});
    t.add_row({"wall seconds", Table::fmt(rep.wall_seconds, 4)});
    return t;
  }

  // accuracy
  const auto truth_run = run_execution(app, target, sys);
  ReplayConfig naive_cfg;
  naive_cfg.mode = ReplayMode::kNaive;
  const auto naive = run_replay(capture, target, naive_cfg);
  const auto sctm = run_replay(capture, target, e.replay);
  const auto truth = summarize(truth_run.trace);
  const auto en = compare(truth, summarize(naive.result));
  const auto es = compare(truth, summarize(sctm.result));
  Table t("accuracy: " + app.name + " (" + capture_spec.describe() +
          " -> " + target.describe() + ")");
  t.set_header({"model", "runtime err", "latency err", "p99 err"});
  t.add_row({"naive", Table::pct(en.runtime_err),
             Table::pct(en.mean_latency_err), Table::pct(en.p99_latency_err)});
  t.add_row({"sctm", Table::pct(es.runtime_err),
             Table::pct(es.mean_latency_err), Table::pct(es.p99_latency_err)});
  return t;
}

}  // namespace sctm::core
