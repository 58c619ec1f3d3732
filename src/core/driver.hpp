// Experiment driver: the one-stop API the examples and benches use.
//
// Wraps the three simulation modes the paper compares:
//   execution-driven  - CmpSystem over a real network (ground truth, slow)
//   naive trace       - capture once, replay frozen timestamps (fast, wrong)
//   self-correcting   - capture once, dependency-corrected replay
// and builds networks from a small declarative spec so a bench can sweep
// network kinds/parameters in a few lines. A NetSpec holds each parameter
// block once (the hybrid reuses `enoc` and `onoc`), and make_factory is the
// one way to build a network from it — for capture, for replay, and for
// every ReplaySession rebind.
#pragma once

#include <memory>
#include <string>

#include "common/config.hpp"
#include "common/run_metrics.hpp"
#include "core/replay.hpp"
#include "enoc/enoc_network.hpp"
#include "fault/fault_spec.hpp"
#include "fullsys/cmp_system.hpp"
#include "onoc/hybrid_network.hpp"
#include "onoc/onoc_network.hpp"
#include "trace/record.hpp"

namespace sctm::core {

enum class NetKind { kIdeal, kEnoc, kOnocToken, kOnocSetup, kOnocSwmr, kHybrid };

/// The `<which>.kind` / `--net` spellings.
inline constexpr Spelling<NetKind> kNetKindNames[] = {
    {NetKind::kIdeal, "ideal"},          {NetKind::kEnoc, "enoc"},
    {NetKind::kOnocToken, "onoc-token"}, {NetKind::kOnocSetup, "onoc-setup"},
    {NetKind::kOnocSwmr, "onoc-swmr"},   {NetKind::kHybrid, "hybrid"},
};

inline const char* to_string(NetKind k) { return spelling_of(kNetKindNames, k); }

struct NetSpec {
  NetKind kind = NetKind::kEnoc;
  noc::Topology topo = noc::Topology::mesh(4, 4);
  noc::IdealNetwork::Params ideal{};
  enoc::EnocParams enoc{};
  onoc::OnocParams onoc{};
  /// Steering thresholds only: a hybrid builds its electrical layer from
  /// `enoc` and its optical layer from `onoc`.
  onoc::HybridParams hybrid{};
  /// Fault regime (default-constructed = inert: no model installed, the
  /// fault-free paths and --stats-json output are byte-identical to before
  /// this field existed).
  fault::FaultSpec fault{};

  std::string describe() const;

  /// Memberwise equality across kind, topology and every parameter block.
  /// ReplaySession::rebind keys on this: an equal spec keeps the constructed
  /// network across resets, any other spec rebuilds it (parameters are
  /// fixed at construction).
  bool operator==(const NetSpec&) const = default;
};

/// Builds `spec`'s network: ReplaySession binds it for replay, and
/// run_execution captures over it.
NetworkFactory make_factory(const NetSpec& spec);

struct ExecutionRun {
  trace::Trace trace;     // capture of the run (also the ground-truth record)
  Cycle runtime = 0;      // application runtime in cycles
  double wall_seconds = 0;
  std::uint64_t events = 0;  // kernel events executed
  /// Full stat-registry dump of the run (gem5-style stats file content).
  std::string stats_report;
  /// Snapshot of the run's stat registry (network counters, cache/core/mc
  /// stats — everything Components registered) for JSON export.
  StatRegistry stats;
  /// Per-phase timing: "build" (network + CMP construction), "execute"
  /// (kernel run, with its event count), "finalize_trace" (validation).
  std::vector<PhaseMetrics> phases;
};

/// Runs the application execution-driven on `net`, capturing a trace.
ExecutionRun run_execution(const fullsys::AppParams& app, const NetSpec& net,
                           const fullsys::FullSysParams& sys);

struct ReplayRun {
  ReplayResult result;
  double wall_seconds = 0;
  /// Per-phase timing: one "iter N" phase per replay pass (events = kernel
  /// events of that pass).
  std::vector<PhaseMetrics> phases;
};

/// Replays `rt` over a fresh network built from `net` (one throwaway
/// ReplaySession running the full engine). Build the ReplayTrace once —
/// ReplayTrace(trace) in memory, load_replay_trace() from a file — and reuse
/// it across target networks without re-validating it. An empty trace
/// yields an empty result without building a network.
ReplayRun run_replay(const ReplayTrace& rt, const NetSpec& net,
                     const ReplayConfig& config);

/// Loads a trace file straight into replay form, dispatching on the on-disk
/// format: v2 containers stream chunk-at-a-time into the flat arrays (peak
/// memory is the replay representation plus one decoded chunk, not the whole
/// record vector-of-vectors), v1 monoliths go through the in-memory reader.
ReplayTrace load_replay_trace(const std::string& path);

/// Short provenance string identifying `rt` in run manifests
/// ("<app>@<capture-net>/seed=S/records=N").
std::string trace_id(const ReplayTrace& rt);

/// Assembles the standard metrics document for an execution-driven run:
/// manifest (tool, caller-supplied timestamp, app/net config echo), the
/// run's phases, full stat-registry snapshot, a "latency" histogram, and a
/// results object with runtime/messages/events.
RunMetrics metrics_for_execution(const fullsys::AppParams& app,
                                 const NetSpec& net, const ExecutionRun& run,
                                 std::string tool, std::string created);

/// Same for a replay run: manifest echoes the trace id, target net, and
/// replay mode/window; phases carry the per-iteration records; results hold
/// runtime/iterations/residual plus the per-iteration convergence log.
RunMetrics metrics_for_replay(const ReplayTrace& rt, const NetSpec& net,
                              const ReplayConfig& config, const ReplayRun& run,
                              std::string tool, std::string created);

}  // namespace sctm::core
