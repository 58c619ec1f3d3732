// sctm_cli — command-line front end for the capture/replay workflow.
//
//   sctm_cli capture  --app fft --net enoc --out /tmp/t.trc2 [--cores 16]
//                     [--lines 16] [--iters 2] [--mesh 4x4] [--format v1|v2]
//   sctm_cli replay   --trace /tmp/t.trc2 --net onoc-token [--mode sctm]
//                     [--window W] [--iters-max 8] [--csv out.csv]
//   sctm_cli explore  --trace /tmp/t.trc2 --candidates cands.cfg
//                     [--screen-top K] [--threads N] [--mode sctm]
//                     [--window W] [--csv out.csv]
//   sctm_cli inspect  --trace /tmp/t.trc2 [--text]
//   sctm_cli exec     --app fft --net onoc-setup [...]   (execution-driven)
//   sctm_cli validate --json metrics.json     (schema-check a metrics doc)
//
// Trace file tooling (both formats; --chunk sets a v2 file's chunk size):
//
//   sctm_cli trace info    --trace <file> [--chunks]
//   sctm_cli trace convert --in <file> --out <file> [--format v1|v2]
//                          [--chunk N]
//   sctm_cli trace verify  --trace <file> [--quick]
//   sctm_cli trace hash    --trace <file>
//   sctm_cli trace add     --trace <file> --dir <catalog>
//   sctm_cli trace list    --dir <catalog>
//
// Fabric tooling (the graph-backed topology layer):
//
//   sctm_cli topo info   <file|spec>     (counts, radix histogram, diameter)
//   sctm_cli topo verify <file|spec>     (routes + channel-dependency audit)
//
// Run subcommands take --topo <spec> (mesh:WxH, torus:WxH, ring:N,
// mesh3d:XxYxZ, torus3d:XxYxZ, file:<path>) in addition to the legacy
// --mesh WxH shorthand.
//
// The flags fill one Config, each run flag as its experiment key (see
// flag_keys()), and the parsers of core/experiment.hpp read it: a flag is
// checked exactly like the key in a config file, and an error names the key.
//
// Every run subcommand accepts --stats-json <path> to emit the machine-
// readable run-metrics document (schema sctm.run_metrics.v1: manifest +
// per-phase timing + stat-registry snapshot + results); `validate` is the
// matching schema checker, used by CI as the emission gate.
//
// Networks: ideal | enoc | onoc-token | onoc-setup | onoc-swmr | hybrid.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/run_metrics.hpp"
#include "common/table.hpp"
#include "analytic/screen.hpp"
#include "analytic/trace_profile.hpp"
#include "core/driver.hpp"
#include "core/error_metrics.hpp"
#include "core/experiment.hpp"
#include "core/explore.hpp"
#include "fault/fault_spec.hpp"
#include "noc/route_table.hpp"
#include "noc/routing.hpp"
#include "trace/trace_io.hpp"
#include "tracestore/catalog.hpp"
#include "tracestore/trace_store.hpp"

namespace {

using namespace sctm;

/// The run flags that are experiment keys. Every other flag keeps its own
/// name as its key; --mesh and --topo expand to net.* keys.
const std::map<std::string, std::string>& flag_keys() {
  static const std::map<std::string, std::string> table = {
      {"net", "net.kind"},
      {"app", "app.name"},
      {"cores", "app.cores"},
      {"lines", "app.lines_per_core"},
      {"iters", "app.iterations"},
      {"seed", "app.seed"},
      {"mode", "replay.mode"},
      {"window", "replay.window"},
      {"iters-max", "replay.max_iterations"},
      {"screen-top", "explore.screen.top_k"},
  };
  return table;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n", why);
  std::fprintf(
      stderr,
      "usage:\n"
      "  sctm_cli capture --app <name> --net <kind> --out <file> "
      "[--cores N] [--lines N] [--iters N] [--mesh WxH] [--seed S] "
      "[--format v1|v2] [--faults <cfg>]\n"
      "  sctm_cli replay  --trace <file> --net <kind> [--mode naive|sctm] "
      "[--window W] [--iters-max N] [--csv <file>] "
      "[--mesh WxH] [--faults <cfg>]\n"
      "  sctm_cli explore --trace <file> --candidates <config> "
      "[--screen-top K] [--threads N] [--mode naive|sctm] [--window W] "
      "[--iters-max N] [--csv <file>] [--faults <cfg>]\n"
      "  sctm_cli inspect --trace <file> [--text]\n"
      "  sctm_cli exec    --app <name> --net <kind> [--cores N] [--lines N] "
      "[--iters N] [--mesh WxH] [--stats <file>] [--faults <cfg>]\n"
      "  sctm_cli validate --json <file>\n"
      "  sctm_cli trace info    --trace <file> [--chunks]\n"
      "  sctm_cli trace convert --in <file> --out <file> [--format v1|v2] "
      "[--chunk N]\n"
      "  sctm_cli trace verify  --trace <file> [--quick]\n"
      "  sctm_cli trace hash    --trace <file>\n"
      "  sctm_cli trace add     --trace <file> --dir <catalog>\n"
      "  sctm_cli trace list    --dir <catalog>\n"
      "  sctm_cli topo info     <file|spec>\n"
      "  sctm_cli topo verify   <file|spec> [--algo <routing>]\n"
      "run subcommands also accept --topo <spec>; a spec is mesh:WxH, "
      "torus:WxH, ring:N, mesh3d:XxYxZ, torus3d:XxYxZ or file:<path>\n"
      "all run subcommands accept --stats-json <file> (machine-readable "
      "run metrics)\n"
      "--faults reads a config of fault.* keys (rates, timeouts, seed) and "
      "runs the network with deterministic fault injection\n"
      "--screen-top K ranks every candidate with the tier-0 analytic model "
      "and replays only the top K (explore.screen.top_k in the config does "
      "the same)\n"
      "explore --threads N replays N candidates at once (0 = one per "
      "hardware thread); each replay itself runs on one thread\n"
      "any other flag is an error\n");
  // The spelling tables the parsers read, so the lists cannot drift.
  std::fprintf(stderr, "networks:");
  for (const auto& k : core::kNetKindNames) {
    std::fprintf(stderr, " %s", k.name);
  }
  std::fprintf(stderr, "\napps:");
  for (const std::string& a : fullsys::app_names()) {
    std::fprintf(stderr, " %s", a.c_str());
  }
  std::fprintf(stderr,
               "\nrun flags are experiment keys (--net is net.kind, --window "
               "is replay.window, ...; see README): a bad value fails naming "
               "its key\n");
  std::exit(2);
}

/// The flags each subcommand reads ("trace <verb>" / "topo <verb>" for the
/// tool families). parse_flags rejects every other flag, so a mistyped or
/// retired flag fails loudly instead of being silently ignored.
const std::map<std::string, std::set<std::string>>& accepted_flags() {
  static const std::map<std::string, std::set<std::string>> table = {
      {"capture",
       {"app", "net", "out", "cores", "lines", "iters", "mesh", "topo", "seed",
        "format", "faults", "stats-json"}},
      {"replay",
       {"trace", "net", "mode", "window", "iters-max", "csv", "mesh", "topo",
        "faults", "stats-json"}},
      {"explore",
       {"trace", "candidates", "screen-top", "threads", "mode", "window",
        "iters-max", "csv", "faults", "stats-json"}},
      {"inspect", {"trace", "text", "stats-json"}},
      {"exec",
       {"app", "net", "cores", "lines", "iters", "mesh", "topo", "seed",
        "stats", "faults", "stats-json"}},
      {"validate", {"json"}},
      {"trace info", {"trace", "chunks"}},
      {"trace convert", {"in", "out", "format", "chunk"}},
      {"trace verify", {"trace", "quick"}},
      {"trace hash", {"trace"}},
      {"trace add", {"trace", "dir"}},
      {"trace list", {"dir"}},
      {"topo info", {}},
      {"topo verify", {"algo"}},
  };
  return table;
}

/// Expands a topology spec into the net.* keys topology_from_config reads:
/// mesh:WxH | torus:WxH | ring:N | mesh3d:XxYxZ | torus3d:XxYxZ |
/// file:<path>; bare WxH is a mesh, anything else without a colon a
/// topology file path. Missing dimensions are 1. The expansion only splits
/// the text: the parser checks every value and names its key.
void set_topology_keys(Config& cfg, const std::string& spec) {
  const auto colon = spec.find(':');
  const bool bare = colon == std::string::npos;
  const std::string kind = !bare ? spec.substr(0, colon)
                           : spec.find('x') != std::string::npos ? "mesh"
                                                                 : "file";
  const std::string rest = bare ? spec : spec.substr(colon + 1);
  cfg.set("net.topology", kind);
  if (kind == "file") {
    cfg.set("net.topology.file", rest);
    return;
  }
  std::vector<const char*> keys = {"net.mesh_width", "net.mesh_height",
                                   "net.mesh_depth"};
  if (kind == "ring") {
    keys = {"net.ring_nodes"};
  } else if (kind == "mesh" || kind == "torus") {
    keys.pop_back();
  } else if (kind != "mesh3d" && kind != "torus3d") {
    return;  // the parser names the unknown kind
  }
  std::size_t d = 0;
  for (std::size_t pos = 0; pos != std::string::npos; ++d) {
    if (d == keys.size()) {
      usage(("topology spec " + spec + ": " + kind + " takes " +
             std::to_string(keys.size()) + " dimension(s)")
                .c_str());
    }
    const auto x = rest.find('x', pos);
    cfg.set(keys[d], rest.substr(pos, x == std::string::npos ? x : x - pos));
    pos = x == std::string::npos ? x : x + 1;
  }
  for (; d < keys.size(); ++d) cfg.set(keys[d], "1");
}

/// Parses argv[first..] as `--key value` pairs (--text, --chunks and --quick
/// take no value) for subcommand `cmd`, which must be a key of
/// accepted_flags(), into one Config keyed as flag_keys() says. --topo wins
/// over the legacy --mesh shorthand.
Config parse_flags(int argc, char** argv, int first, const std::string& cmd) {
  const std::set<std::string>& accepted = accepted_flags().at(cmd);
  Config out;
  std::string fabric;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage(("unexpected token " + key).c_str());
    key = key.substr(2);
    if (accepted.count(key) == 0) {
      usage(("unknown flag --" + key + " for '" + cmd + "'").c_str());
    }
    if (key == "text" || key == "chunks" || key == "quick") {  // booleans
      out.set(key, "1");
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for --" + key).c_str());
    const std::string value = argv[++i];
    if (key == "mesh") {
      if (value.find(':') != std::string::npos ||
          value.find('x') == std::string::npos) {
        usage("--mesh expects WxH");
      }
      if (fabric.empty()) fabric = value;
    } else if (key == "topo") {
      fabric = value;
    } else {
      const auto k = flag_keys().find(key);
      out.set(k == flag_keys().end() ? key : k->second, value);
    }
  }
  if (!fabric.empty()) set_topology_keys(out, fabric);
  return out;
}

/// The value of required flag --`flag`.
std::string require_flag(const Config& f, const std::string& flag) {
  const auto k = flag_keys().find(flag);
  const std::string key = k == flag_keys().end() ? flag : k->second;
  if (!f.contains(key)) usage(("--" + flag + " required").c_str());
  return f.get_string(key);
}

/// The --faults file: fault.* keys only (see fault/fault_spec.hpp); any
/// other key is an error, as is an unknown fault.* key, and every error
/// names the file. Inert without the flag.
fault::FaultSpec faults_flag(const Config& f) {
  if (!f.contains("faults")) return {};
  const std::string path = f.get_string("faults");
  try {
    const Config faults = Config::from_file(path);
    const fault::FaultSpec spec = fault::FaultSpec::from_config(faults);
    faults.reject_unread("");
    return spec;
  } catch (const std::exception& e) {
    throw std::runtime_error("--faults " + path + ": " + e.what());
  }
}

/// Writes `m` when --stats-json was given; reports the path on stdout.
void maybe_emit_stats_json(const Config& f, const sctm::RunMetrics& m) {
  if (!f.contains("stats-json")) return;
  const std::string path = f.get_string("stats-json");
  m.write_file(path);
  std::printf("run metrics json -> %s\n", path.c_str());
}

/// --format, v2 unless given.
trace::TraceFormat format_flag(const Config& f) {
  return f.get_enum("format", trace::kTraceFormatNames)
      .value_or(trace::TraceFormat::kV2);
}

/// The run's network and workload, read by the experiment parsers: a run
/// subcommand needs --net and --app, the --faults file supplies the fault
/// regime, and --cores defaults to one core per fabric node.
std::pair<core::NetSpec, fullsys::AppParams> run_of(Config& f) {
  require_flag(f, "net");
  require_flag(f, "app");
  core::NetSpec spec = core::netspec_from_config(f, "net");
  spec.fault = faults_flag(f);
  if (!f.contains("app.cores")) f.set_int("app.cores", spec.topo.node_count());
  return {spec, core::app_from_config(f)};
}

int cmd_capture(Config& f) {
  const auto out = require_flag(f, "out");
  const auto [spec, app] = run_of(f);
  const auto format = format_flag(f);
  const auto exec = core::run_execution(app, spec, {});
  tracestore::write_file(exec.trace, out, format);
  std::printf("captured %zu messages (%s on %s), runtime %llu cycles, "
              "%.3f s wall -> %s (%s)\n",
              exec.trace.records.size(), app.name.c_str(),
              spec.describe().c_str(),
              static_cast<unsigned long long>(exec.runtime),
              exec.wall_seconds, out.c_str(), trace::to_string(format));
  auto metrics = core::metrics_for_execution(app, spec, exec,
                                             "sctm_cli capture",
                                             now_iso8601());
  metrics.manifest.set("trace_out", out);
  maybe_emit_stats_json(f, metrics);
  return 0;
}

int cmd_replay(Config& f) {
  const auto trace = require_flag(f, "trace");
  require_flag(f, "net");
  const core::ReplayConfig cfg = core::replay_from_config(f);
  // v2 containers decode straight into the replay representation; a whole
  // record vector-of-vectors is never materialized.
  const auto loaded = core::load_replay_trace(trace);
  // Without --mesh or --topo, a trace of k*k nodes replays on a k x k mesh.
  if (!f.contains("net.topology")) {
    int k = 1;
    while (k * k < loaded.nodes()) ++k;
    if (k * k == loaded.nodes()) {
      f.set_int("net.mesh_width", k);
      f.set_int("net.mesh_height", k);
    }
  }
  auto spec = core::netspec_from_config(f, "net");
  spec.fault = faults_flag(f);

  const auto rep = core::run_replay(loaded, spec, cfg);
  const auto h = rep.result.latency_histogram();
  std::printf("replayed %u messages on %s (%s): runtime %llu cycles, "
              "latency mean %.1f p50 %llu p99 %llu, %d iteration(s), "
              "%.4f s wall\n",
              loaded.size(), spec.describe().c_str(),
              core::to_string(cfg.mode),
              static_cast<unsigned long long>(rep.result.runtime), h.mean(),
              static_cast<unsigned long long>(h.percentile(0.5)),
              static_cast<unsigned long long>(h.percentile(0.99)),
              rep.result.iterations, rep.wall_seconds);
  if (f.contains("csv")) {
    const std::string csv = f.get_string("csv");
    Table t("replay");
    t.set_header({"id", "inject", "arrive", "latency"});
    for (std::uint32_t i = 0; i < loaded.size(); ++i) {
      t.add_row({Table::fmt(loaded.id(i)),
                 Table::fmt(rep.result.inject_time[i]),
                 Table::fmt(rep.result.arrive_time[i]),
                 Table::fmt(rep.result.arrive_time[i] -
                            rep.result.inject_time[i])});
    }
    t.write_csv(csv);
    std::printf("per-message csv -> %s\n", csv.c_str());
  }
  maybe_emit_stats_json(
      f, core::metrics_for_replay(loaded, spec, cfg, rep, "sctm_cli replay",
                                  now_iso8601()));
  return 0;
}

int cmd_explore(const Config& f) {
  const auto tr = require_flag(f, "trace");
  const auto cand_path = require_flag(f, "candidates");
  // The candidates config carries both the design space
  // (candidate.<name>.<param> in the experiment vocabulary) and, optionally,
  // the screen setting (explore.screen.top_k); parse errors come back with
  // file:line anchors.
  const Config cand_cfg = Config::from_file(cand_path);
  auto candidates = core::candidates_from_config(cand_cfg, cand_path);
  // --faults supplies the shared fault regime; a candidate's own fault.*
  // keys (if any) win over it.
  const auto shared = faults_flag(f);
  for (auto& c : candidates) {
    if (c.spec.fault == fault::FaultSpec{}) c.spec.fault = shared;
  }
  core::ExploreConfig base;
  base.replay = core::replay_from_config(f);
  base.threads = f.get_as("threads", base.threads);
  // --screen-top (explore.screen.top_k) wins over the candidates file's.
  const core::ExploreConfig cfg =
      core::explore_config_from(f, core::explore_config_from(cand_cfg, base));
  // v2 containers decode straight into the replay representation.
  const auto rt = core::load_replay_trace(tr);

  const auto results = analytic::explore_screened(rt, candidates, cfg);
  const bool screened = cfg.screen_top_k != 0;

  Table t("explore");
  t.set_header({"rank", "candidate", "tier", "est_runtime", "runtime",
                "latency_mean", "latency_p99", "iterations", "wall_s"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    t.add_row({Table::fmt(static_cast<std::uint64_t>(i + 1)), r.name,
               r.replayed ? (screened ? "replay" : "full") : "analytic",
               r.analytic_rank != 0 ? Table::fmt(r.est_runtime, 0) : "-",
               r.replayed ? Table::fmt(std::uint64_t{r.runtime}) : "-",
               r.replayed ? Table::fmt(r.mean_latency, 1) : "-",
               r.replayed ? Table::fmt(std::uint64_t{r.p99_latency}) : "-",
               r.replayed ? Table::fmt(static_cast<std::int64_t>(r.iterations))
                          : "-",
               r.replayed ? Table::fmt(r.wall_seconds, 4) : "-"});
  }
  std::fputs(t.to_ascii().c_str(), stdout);
  std::printf("explored %zu candidate(s) over %u records (%s%s), best: %s\n",
              results.size(), rt.size(), core::to_string(cfg.replay.mode),
              screened ? ", screened" : "",
              results.empty() ? "-" : results.front().name.c_str());
  if (f.contains("csv")) {
    const std::string csv = f.get_string("csv");
    t.write_csv(csv);
    std::printf("results csv -> %s\n", csv.c_str());
  }

  if (f.contains("stats-json")) {
    RunMetrics m = core::metrics_for_explore(rt, candidates, cfg, results,
                                             "sctm_cli explore",
                                             now_iso8601());
    // Resolved worker count: `0 = hardware` resolves through the one
    // resolve_threads() convention, so the manifest records the candidate
    // workers the run actually used.
    m.manifest.set("explore_workers",
                   static_cast<std::int64_t>(resolve_threads(cfg.threads)));
    maybe_emit_stats_json(f, m);
  }
  return 0;
}

int cmd_inspect(const Config& f) {
  // Validates before anything prints.
  const auto rt = core::load_replay_trace(require_flag(f, "trace"));
  const trace::Trace& loaded = rt.trace();
  const analytic::TraceProfile profile = analytic::profile_trace(rt);
  const auto s = core::summarize(loaded);
  std::printf("app=%s capture-net='%s' nodes=%d seed=%llu\n",
              loaded.app.c_str(), loaded.capture_network.c_str(), loaded.nodes,
              static_cast<unsigned long long>(loaded.seed));
  std::printf("records=%zu runtime=%llu latency mean=%.1f p99=%llu\n",
              loaded.records.size(),
              static_cast<unsigned long long>(loaded.capture_runtime),
              s.mean_latency, static_cast<unsigned long long>(s.p99_latency));
  std::printf("deps/record=%.2f roots=%llu critical-path=%llu records\n",
              profile.mean_fanin,
              static_cast<unsigned long long>(profile.roots),
              static_cast<unsigned long long>(profile.critical_depth));
  if (f.contains("text")) std::fputs(trace::to_text(loaded).c_str(), stdout);

  if (f.contains("stats-json")) {
    RunMetrics m;
    m.manifest.tool = "sctm_cli inspect";
    m.manifest.created = now_iso8601();
    m.manifest.set("trace", core::trace_id(rt));
    m.manifest.set("app", loaded.app);
    m.manifest.set("capture_net", loaded.capture_network);
    m.manifest.set("nodes", loaded.nodes);
    m.manifest.set("seed", loaded.seed);
    Histogram lat;
    for (std::size_t i = 0; i < loaded.records.size(); ++i) {
      lat.add(loaded.records.latency(i));
    }
    m.add_histogram("latency", lat, /*with_buckets=*/true);
    JsonWriter results;
    results.begin_object();
    results.key("records");
    results.value(static_cast<std::uint64_t>(loaded.records.size()));
    results.key("capture_runtime_cycles");
    results.value(std::uint64_t{loaded.capture_runtime});
    results.key("mean_deps_per_record");
    results.value(profile.mean_fanin);
    results.key("roots");
    results.value(profile.roots);
    results.key("critical_path_records");
    results.value(std::uint64_t{profile.critical_depth});
    results.end_object();
    m.set_results_json(std::move(results).str());
    maybe_emit_stats_json(f, m);
  }
  return 0;
}

int cmd_exec(Config& f) {
  const auto [spec, app] = run_of(f);
  const auto exec = core::run_execution(app, spec, {});
  const auto s = core::summarize(exec.trace);
  std::printf("%s on %s: runtime %llu cycles, %zu messages, latency mean "
              "%.1f p99 %llu, %.3f s wall\n",
              app.name.c_str(), spec.describe().c_str(),
              static_cast<unsigned long long>(exec.runtime),
              exec.trace.records.size(), s.mean_latency,
              static_cast<unsigned long long>(s.p99_latency),
              exec.wall_seconds);
  if (f.contains("stats")) {
    const std::string path = f.get_string("stats");
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fputs(exec.stats_report.c_str(), out);
    std::fclose(out);
    std::printf("full stats dump -> %s\n", path.c_str());
  }
  maybe_emit_stats_json(f, core::metrics_for_execution(app, spec, exec,
                                                       "sctm_cli exec",
                                                       now_iso8601()));
  return 0;
}

int cmd_validate(const Config& f) {
  const auto path = require_flag(f, "json");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string err;
  if (!validate_metrics_json(buf.str(), &err)) {
    std::fprintf(stderr, "invalid metrics document %s: %s\n", path.c_str(),
                 err.c_str());
    return 1;
  }
  std::printf("%s: valid %s document\n", path.c_str(),
              std::string(kMetricsSchema).c_str());
  return 0;
}

int cmd_trace_info(const Config& f) {
  const auto path = require_flag(f, "trace");
  const auto reader = tracestore::TraceReader::open_file(path);
  const auto& m = reader.meta();
  std::uint64_t hash = reader.stored_content_hash();
  if (reader.format() == trace::TraceFormat::kV1) {
    trace::Trace t;  // v1 stores no hash: recompute it
    reader.ingest(t, nullptr, &hash);
  }
  std::printf("%s: format=%s app=%s capture-net='%s' nodes=%d seed=%llu\n",
              path.c_str(), trace::to_string(reader.format()), m.app.c_str(),
              m.capture_network.c_str(), m.nodes,
              static_cast<unsigned long long>(m.seed));
  std::printf("records=%llu chunks=%zu chunk-target=%u bytes=%llu "
              "content-hash=%s\n",
              static_cast<unsigned long long>(reader.record_count()),
              reader.chunk_count(), reader.chunk_target(),
              static_cast<unsigned long long>(reader.file_bytes()),
              tracestore::hash_hex(hash).c_str());
  if (f.contains("chunks")) {
    for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
      const auto& c = reader.chunk_info(i);
      std::printf("  chunk %zu: records [%llu, %llu) bytes=%u cycles "
                  "[%llu, %llu]\n",
                  i, static_cast<unsigned long long>(c.first_record),
                  static_cast<unsigned long long>(c.first_record +
                                                  c.record_count),
                  c.payload_len,
                  static_cast<unsigned long long>(c.min_cycle),
                  static_cast<unsigned long long>(c.max_cycle));
    }
  }
  return 0;
}

int cmd_trace_convert(const Config& f) {
  const auto in = require_flag(f, "in");
  const auto out = require_flag(f, "out");
  const auto format = format_flag(f);
  if (format != trace::TraceFormat::kV2 && f.contains("chunk")) {
    usage("--chunk sets the records per chunk of a v2 file; v1 has no chunks");
  }
  const auto chunk =
      f.get_as<std::uint32_t>("chunk", tracestore::kDefaultChunkRecords);
  if (chunk == 0) {
    f.reject("chunk", "0 is out of range [1, " + std::to_string(UINT32_MAX) +
                          "]");
  }
  const auto reader = tracestore::TraceReader::open_file(in);
  tracestore::write_file(reader.read_all(), out, format, chunk);
  const auto out_bytes = std::ifstream(out, std::ios::binary | std::ios::ate)
                             .tellg();
  std::printf("%s (%s, %llu bytes) -> %s (%s, %lld bytes), ratio %.2fx\n",
              in.c_str(), trace::to_string(reader.format()),
              static_cast<unsigned long long>(reader.file_bytes()),
              out.c_str(), trace::to_string(format),
              static_cast<long long>(out_bytes),
              out_bytes > 0 ? static_cast<double>(reader.file_bytes()) /
                                  static_cast<double>(out_bytes)
                            : 0.0);
  return 0;
}

int cmd_trace_verify(const Config& f) {
  const auto path = require_flag(f, "trace");
  const auto rep = tracestore::verify_file(path, /*deep=*/!f.contains("quick"));
  const bool v1 = rep.format == trace::TraceFormat::kV1;
  if (rep.ok) {
    if (v1) {  // v1 has no checksums: "verify" = every byte reads back
      std::printf("%s: OK (v1, %llu records; no checksums in v1)\n",
                  path.c_str(), static_cast<unsigned long long>(rep.records));
    } else {
      std::printf("%s: OK (v2, %llu records in %llu chunks%s)\n",
                  path.c_str(), static_cast<unsigned long long>(rep.records),
                  static_cast<unsigned long long>(rep.chunks),
                  rep.hash_checked ? ", content hash verified" : "");
    }
    return 0;
  }
  if (rep.bad_chunk >= 0) {
    std::fprintf(stderr, "%s: CORRUPT in chunk %lld: %s\n", path.c_str(),
                 static_cast<long long>(rep.bad_chunk), rep.error.c_str());
  } else {
    std::fprintf(stderr, "%s: CORRUPT%s: %s\n", path.c_str(),
                 v1 ? " (v1)" : "", rep.error.c_str());
  }
  return 1;
}

int cmd_trace_hash(const Config& f) {
  const auto path = require_flag(f, "trace");
  // Recomputed over the logical content, so the hash is format-independent:
  // a v1 file and its v2 conversion print the same address.
  const auto t = trace::read_binary_file(path);
  std::printf("%s  %s\n", tracestore::hash_hex(tracestore::content_hash(t)).c_str(),
              path.c_str());
  return 0;
}

int cmd_trace_add(const Config& f) {
  const auto path = require_flag(f, "trace");
  const auto dir = require_flag(f, "dir");
  tracestore::TraceCatalog catalog(dir);
  const auto entry = catalog.add(trace::read_binary_file(path), now_iso8601());
  std::printf("%s -> %s (%llu records, %llu chunks)\n", path.c_str(),
              catalog.container_path(entry).c_str(),
              static_cast<unsigned long long>(entry.records),
              static_cast<unsigned long long>(entry.chunks));
  return 0;
}

int cmd_trace_list(const Config& f) {
  const auto dir = require_flag(f, "dir");
  const tracestore::TraceCatalog catalog(dir);
  const auto entries = catalog.list();
  for (const auto& e : entries) {
    std::printf("%s  app=%s net='%s' nodes=%d seed=%llu records=%llu "
                "bytes=%llu created=%s\n",
                e.hash.c_str(), e.app.c_str(), e.capture_network.c_str(),
                e.nodes, static_cast<unsigned long long>(e.seed),
                static_cast<unsigned long long>(e.records),
                static_cast<unsigned long long>(e.file_bytes),
                e.created.empty() ? "-" : e.created.c_str());
  }
  std::printf("%zu trace(s) in %s\n", entries.size(), catalog.dir().c_str());
  return 0;
}

// --------------------------------------------------------------------------
// topo — fabric tooling over the graph-backed topology layer.
//
//   sctm_cli topo info   <file|spec>
//   sctm_cli topo verify <file|spec> [--algo <routing>]
//
// <file|spec> is a topology file path or a mesh:WxH / torus:WxH / ring:N /
// mesh3d:XxYxZ / torus3d:XxYxZ / file:<path> spec. File errors are anchored
// "<path>:<line>: ..." by the parser.

int cmd_topo_info(const noc::Topology& topo) {
  std::printf("topology: %s\n", topo.describe().c_str());
  std::printf("nodes: %d\n", topo.node_count());
  std::printf("edges: %d\n", topo.link_count() / 2);
  std::map<int, int> hist;  // degree -> node count
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    int deg = 0;
    for (int p = 0; p < topo.radix(n); ++p) {
      if (topo.neighbor(n, p) != kInvalidNode) ++deg;
    }
    ++hist[deg];
  }
  std::string h;
  for (const auto& [deg, cnt] : hist) {
    if (!h.empty()) h += " ";
    h += std::to_string(deg) + ":" + std::to_string(cnt);
  }
  std::printf("radix histogram: %s\n", h.c_str());
  std::printf("diameter: %d\n", topo.diameter());
  std::printf("mean distance: %.4f\n", topo.mean_distance());
  return 0;
}

int cmd_topo_verify(const noc::Topology& topo, const Config& f) {
  // Without --algo the routing table resolves the fabric's natural one.
  const noc::RoutingTable rt(topo, f.get_enum("algo", noc::kRoutingAlgoNames));
  const noc::RoutingAlgo algo = rt.algo();
  if (!noc::compatible(topo, algo)) {
    std::fprintf(stderr, "%s: FAIL: %s routing is incompatible with this "
                 "topology kind\n",
                 topo.describe().c_str(), noc::to_string(algo));
    return 1;
  }
  // Connectivity: the file parser and the table builder both reject
  // disconnected fabrics; regular kinds are connected by construction.
  const auto audit = noc::audit_routes(rt);
  if (audit.ok) {
    std::printf("%s: OK (%s routing: %d routes terminate at the right "
                "length, max %d hops, channel-dependency graph acyclic)\n",
                topo.describe().c_str(), noc::to_string(algo),
                audit.routes_checked, audit.max_hops);
    return 0;
  }
  std::fprintf(stderr, "%s: FAIL (%s routing): %s\n", topo.describe().c_str(),
               noc::to_string(algo), audit.error.c_str());
  return 1;
}

int cmd_topo(int argc, char** argv) {
  if (argc < 3) usage("topo: missing verb (info|verify)");
  const std::string verb = argv[2];
  if (argc < 4) usage("topo: missing <file|spec> argument");
  const std::string arg = argv[3];
  if (verb != "info" && verb != "verify") {
    usage(("unknown topo verb " + verb).c_str());
  }
  auto flags = parse_flags(argc, argv, 4, "topo " + verb);
  set_topology_keys(flags, arg);
  const auto topo = core::topology_from_config(flags);
  if (verb == "info") return cmd_topo_info(topo);
  return cmd_topo_verify(topo, flags);
}

int cmd_trace(int argc, char** argv) {
  if (argc < 3) usage("trace: missing verb (info|convert|verify|hash|add|list)");
  const std::string verb = argv[2];
  if (accepted_flags().count("trace " + verb) == 0) {
    usage(("unknown trace verb " + verb).c_str());
  }
  const auto flags = parse_flags(argc, argv, 3, "trace " + verb);
  if (verb == "info") return cmd_trace_info(flags);
  if (verb == "convert") return cmd_trace_convert(flags);
  if (verb == "verify") return cmd_trace_verify(flags);
  if (verb == "hash") return cmd_trace_hash(flags);
  if (verb == "add") return cmd_trace_add(flags);
  return cmd_trace_list(flags);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  const std::string cmd = argv[1];
  try {
    if (cmd == "trace") return cmd_trace(argc, argv);
    if (cmd == "topo") return cmd_topo(argc, argv);
    if (accepted_flags().count(cmd) == 0) {
      usage(("unknown subcommand " + cmd).c_str());
    }
    auto flags = parse_flags(argc, argv, 2, cmd);
    if (cmd == "capture") return cmd_capture(flags);
    if (cmd == "replay") return cmd_replay(flags);
    if (cmd == "explore") return cmd_explore(flags);
    if (cmd == "inspect") return cmd_inspect(flags);
    if (cmd == "exec") return cmd_exec(flags);
    return cmd_validate(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
