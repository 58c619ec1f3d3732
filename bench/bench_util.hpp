// Shared helpers for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure of the (reconstructed)
// evaluation: it prints the rows as an aligned table and drops a CSV under
// ./bench_results/ for plotting. Binaries exit non-zero if the experiment's
// sanity conditions fail, so `for b in build/bench/*; do $b; done` doubles
// as an end-to-end check.
#pragma once

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/run_metrics.hpp"
#include "common/table.hpp"
#include "core/driver.hpp"
#include "core/error_metrics.hpp"

namespace sctm::bench {

/// The six workload kernels at the standard evaluation size (16 cores).
inline std::vector<fullsys::AppParams> standard_apps(int cores = 16,
                                                     int lines = 16,
                                                     int iters = 2) {
  std::vector<fullsys::AppParams> out;
  for (const auto& name : fullsys::app_names()) {
    fullsys::AppParams p;
    p.name = name;
    p.cores = cores;
    p.lines_per_core = lines;
    p.iterations = iters;
    out.push_back(p);
  }
  return out;
}

inline core::NetSpec enoc_spec(noc::Topology topo = noc::Topology::mesh(4, 4)) {
  core::NetSpec s;
  s.kind = core::NetKind::kEnoc;
  s.topo = topo;
  return s;
}

inline core::NetSpec onoc_token_spec(
    noc::Topology topo = noc::Topology::mesh(4, 4)) {
  core::NetSpec s;
  s.kind = core::NetKind::kOnocToken;
  s.topo = topo;
  return s;
}

inline core::NetSpec onoc_setup_spec(
    noc::Topology topo = noc::Topology::mesh(4, 4)) {
  core::NetSpec s;
  s.kind = core::NetKind::kOnocSetup;
  s.topo = topo;
  return s;
}

inline core::NetSpec ideal_spec(Cycle per_hop,
                                noc::Topology topo = noc::Topology::mesh(4,
                                                                         4)) {
  core::NetSpec s;
  s.kind = core::NetKind::kIdeal;
  s.topo = topo;
  s.ideal.per_hop_latency = per_hop;
  return s;
}

/// Builds the standard bench metrics document: manifest identifying the
/// bench, the result table under results.table. Callers may add phases /
/// stats / extra manifest entries before emit() writes it out.
inline RunMetrics bench_metrics(const Table& table, const std::string& slug) {
  RunMetrics m;
  m.manifest.tool = "bench/" + slug;
  m.manifest.created = now_iso8601();
  JsonWriter results;
  results.begin_object();
  results.key("table");
  write_table_json(results, table);
  results.end_object();
  m.set_results_json(std::move(results).str());
  return m;
}

/// Prints the table and writes bench_results/<slug>.csv plus the
/// schema-consistent bench_results/<slug>.json run-metrics document.
inline void emit(const Table& table, const std::string& slug) {
  std::fputs(table.to_ascii().c_str(), stdout);
  std::fflush(stdout);
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (ec) return;
  table.write_csv("bench_results/" + slug + ".csv");
  bench_metrics(table, slug).write_file("bench_results/" + slug + ".json");
}

/// emit() variant for benches that assemble their own metrics document
/// (phases, stats, histograms) around the table.
inline void emit(const Table& table, const std::string& slug,
                 const RunMetrics& metrics) {
  std::fputs(table.to_ascii().c_str(), stdout);
  std::fflush(stdout);
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (ec) return;
  table.write_csv("bench_results/" + slug + ".csv");
  metrics.write_file("bench_results/" + slug + ".json");
}

inline double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Wall-clock seconds one call of `run` takes.
template <typename F>
double seconds_of(F&& run) {
  const auto t0 = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// What interleaved_pairs() measured.
struct PairTiming {
  double a_s = 0;    // median seconds of side a
  double b_s = 0;    // median seconds of side b
  double ratio = 0;  // median per-pair ratio b / a
  int a_wins = 0;    // pairs in which a took less time than b
};

/// Runs `pairs` pairs of `a` and `b`, each returning the seconds it took,
/// alternating which side goes first, so a host-speed shift during the bench
/// moves both sides of a pair alike.
template <typename A, typename B>
PairTiming interleaved_pairs(int pairs, A&& a, B&& b) {
  std::vector<double> a_s, b_s, ratio;
  PairTiming out;
  for (int p = 0; p < pairs; ++p) {
    if (p % 2 == 0) {
      a_s.push_back(a());
      b_s.push_back(b());
    } else {
      b_s.push_back(b());
      a_s.push_back(a());
    }
    ratio.push_back(b_s.back() / std::max(1e-9, a_s.back()));
    if (a_s.back() < b_s.back()) ++out.a_wins;
  }
  out.a_s = median(a_s);
  out.b_s = median(b_s);
  out.ratio = median(ratio);
  return out;
}

/// Exit helper: prints a verdict line and returns the process exit code.
inline int verdict(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "OK" : "FAIL", what.c_str());
  return ok ? 0 : 1;
}

}  // namespace sctm::bench
