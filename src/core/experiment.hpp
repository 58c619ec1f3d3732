// Config-driven experiments: build workloads, networks and replay settings
// from a flat Config so whole studies are reproducible from one text file.
//
// Key groups:
//   app.name / app.cores / app.lines_per_core / app.iterations / app.seed
//   capture.kind, target.kind   (ideal|enoc|onoc-token|onoc-setup|
//                                onoc-swmr|hybrid)
//   net.topology  (mesh|torus|ring|mesh3d|torus3d|file; default mesh)
//   net.mesh_width / net.mesh_height / net.mesh_depth  (lattice extents)
//   net.ring_nodes                    (ring size; default width*height)
//   net.topology.file                 (edge-list file for net.topology=file)
//   enoc.* / onoc.* / fullsys.*       (forwarded to the module parsers)
//   fault.*                           (fault injection; see fault/fault_spec)
//   replay.mode (naive|sctm), replay.window, replay.max_iterations
//   experiment.mode = exec | replay | accuracy
//
// A key no parser reads is an error (Config::reject_unread), so these
// parsers are the vocabulary.
#pragma once

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/driver.hpp"
#include "core/error_metrics.hpp"

namespace sctm::core {

/// Fabric from config: net.topology selects the kind (default mesh),
/// net.mesh_width/height/depth and net.ring_nodes size the lattice kinds,
/// net.topology.file names the edge-list file for net.topology = file.
/// Errors name the key, with its config line when one is known.
noc::Topology topology_from_config(const Config& cfg);

/// NetSpec from config: `<which>.kind` selects the network, the fabric comes
/// from topology_from_config(), module parameters from enoc.*/onoc.*, and
/// the fault regime from fault.* (absent keys = inert spec).
/// A config and code that set the same fields build equal specs. Without an
/// enoc.routing key the spec leaves the algorithm unset, and the routing
/// table resolves it to the fabric's natural one (noc::default_algo), so 3D
/// and file fabrics run without extra keys.
NetSpec netspec_from_config(const Config& cfg, const std::string& which);

/// Reads app.*; an unknown app.name (the known ones are listed), app.cores
/// below 2, or app.lines_per_core or app.iterations below 1 throws naming
/// the key and its line.
fullsys::AppParams app_from_config(const Config& cfg);
ReplayConfig replay_from_config(const Config& cfg);

enum class ExperimentMode { kExec, kReplay, kAccuracy };

/// Everything run_experiment reads, parsed before anything simulates.
struct Experiment {
  ExperimentMode mode = ExperimentMode::kExec;
  fullsys::AppParams app;
  fullsys::FullSysParams sys;
  NetSpec capture;
  NetSpec target;
  ReplayConfig replay;
};

/// Parses every section (experiment.mode, app, fullsys, capture, target,
/// replay) whatever the mode, then rejects any key no parser asked for
/// (Config::reject_unread): a misspelt key fails here, with its line,
/// instead of silently meaning the default.
Experiment experiment_from_config(const Config& cfg);

/// Runs the experiment the config describes and returns the result rows:
///   exec     - execution-driven run on `target`
///   replay   - capture on `capture`, replay on `target`
///   accuracy - capture on `capture`, naive+sctm replay on `target`,
///              execution-driven truth on `target`, error report
Table run_experiment(const Config& cfg);

}  // namespace sctm::core
