#include "core/experiment.hpp"

#include <stdexcept>
#include <string>

#include "noc/routing.hpp"

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

}  // namespace

noc::Topology topology_from_config(const Config& cfg) {
  const std::string kind = cfg.get_string("net.topology", "mesh");
  const int w = cfg.get_as("net.mesh_width", 4);
  const int h = cfg.get_as("net.mesh_height", 4);
  if (kind == "mesh") return noc::Topology::mesh(w, h);
  if (kind == "torus") return noc::Topology::torus(w, h);
  if (kind == "ring") {
    return noc::Topology::ring(cfg.get_as("net.ring_nodes", w * h));
  }
  if (kind == "mesh3d" || kind == "torus3d") {
    const int d = cfg.get_as("net.mesh_depth", 2);
    return kind == "mesh3d" ? noc::Topology::mesh3d(w, h, d)
                            : noc::Topology::torus3d(w, h, d);
  }
  if (kind == "file") {
    if (!cfg.contains("net.topology.file")) {
      throw std::runtime_error(
          at(cfg, "net.topology") +
          "net.topology = file requires net.topology.file = <path>");
    }
    return noc::Topology::from_file(cfg.get_string("net.topology.file"));
  }
  throw std::runtime_error(at(cfg, "net.topology") +
                           "net.topology: unknown kind '" + kind +
                           "' (known: mesh, torus, ring, mesh3d, torus3d, "
                           "file)");
}

NetKind net_kind_from(const std::string& name) {
  if (name == "ideal") return NetKind::kIdeal;
  if (name == "enoc") return NetKind::kEnoc;
  if (name == "onoc-token") return NetKind::kOnocToken;
  if (name == "onoc-setup") return NetKind::kOnocSetup;
  if (name == "onoc-swmr") return NetKind::kOnocSwmr;
  if (name == "hybrid") return NetKind::kHybrid;
  throw std::invalid_argument("unknown network kind: " + name);
}

NetSpec netspec_from_config(const Config& cfg, const std::string& which) {
  NetSpec spec;
  spec.kind = net_kind_from(cfg.get_string(which + ".kind", "enoc"));
  spec.topo = topology_from_config(cfg);
  spec.ideal.base_latency =
      cfg.get_as("ideal.base_latency", spec.ideal.base_latency);
  spec.ideal.per_hop_latency =
      cfg.get_as("ideal.per_hop_latency", spec.ideal.per_hop_latency);
  spec.enoc = enoc::EnocParams::from_config(cfg);
  if (!cfg.contains("enoc.routing")) {
    // Without an explicit algorithm the fabric picks its natural one, so
    // 3D and file topologies work out of the box ("xy" would reject them).
    spec.enoc.routing = noc::default_algo(spec.topo);
  }
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
  app.cores = cfg.get_as("app.cores", 16);
  app.lines_per_core = cfg.get_as("app.lines_per_core", 16);
  app.iterations = cfg.get_as("app.iterations", 2);
  app.compute_per_line = cfg.get_as("app.compute_per_line", 8);
  app.seed = cfg.get_as("app.seed", std::uint64_t{1});
  return app;
}

ReplayConfig replay_from_config(const Config& cfg) {
  ReplayConfig rc;
  const std::string mode = cfg.get_string("replay.mode", "sctm");
  if (mode == "naive") rc.mode = ReplayMode::kNaive;
  else if (mode == "sctm") rc.mode = ReplayMode::kSelfCorrecting;
  else throw std::invalid_argument("replay.mode must be naive or sctm");
  rc.dependency_window = cfg.get_as("replay.window", rc.dependency_window);
  rc.max_iterations = cfg.get_as("replay.max_iterations", rc.max_iterations);
  return rc;
}

Table run_experiment(const Config& cfg) {
  const std::string mode = cfg.get_string("experiment.mode", "exec");
  const auto app = app_from_config(cfg);
  const auto sys = fullsys::FullSysParams::from_config(cfg);
  const auto target = netspec_from_config(cfg, "target");

  if (mode == "exec") {
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

  const auto capture_spec = netspec_from_config(cfg, "capture");
  const ReplayTrace capture(run_execution(app, capture_spec, sys).trace);

  if (mode == "replay") {
    const auto rc = replay_from_config(cfg);
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

  if (mode == "accuracy") {
    const auto truth_run = run_execution(app, target, sys);
    ReplayConfig naive_cfg;
    naive_cfg.mode = ReplayMode::kNaive;
    const auto naive = run_replay(capture, target, naive_cfg);
    const auto sctm = run_replay(capture, target, replay_from_config(cfg));
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

  throw std::invalid_argument("experiment.mode must be exec, replay or "
                              "accuracy (got " + mode + ")");
}

}  // namespace sctm::core
