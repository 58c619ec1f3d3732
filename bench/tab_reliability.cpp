// Reliability sweep: self-correction under injected faults (DESIGN.md §11).
//
// Replays one captured workload over every fault-capable fabric at a sweep
// of fault rates, with every fault class armed in proportion to the swept
// rate (flit corruption/drop and stuck-at links on the electrical plane;
// token loss, reservation loss and thermally-eroded optical BER on the
// optical plane). Reports the runtime cost of recovery and the fault /
// retransmission / loss counters the model records.
//
// Verdicts (always enforced — this bench is a correctness gate first):
//  * completion  — every faulted replay runs to completion; the bounded
//                  retry budget means no fault regime can hang the fabric.
//  * determinism — the heaviest regime per fabric, replayed on a fresh
//                  session, equals the sweep's run (schedules AND stats).
//  * zero-rate   — an armed-but-zero FaultSpec reproduces the fault-free
//                  run exactly, stats report included.
//  * cost        — the heaviest regime is no faster than fault-free.
//
// Emits bench_results/TAB_reliability.{csv,json}; `--smoke` runs a reduced
// sweep for CI.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "core/replay_session.hpp"

namespace sctm {
namespace {

/// All fault classes armed in proportion to one swept rate. The thermal
/// drift is stepped onto the Q-factor cliff only for nonzero rates (within
/// the design margin the BER stays ~1e-12 and nothing would fire).
fault::FaultSpec regime(double rate) {
  fault::FaultSpec fs;
  fs.seed = 7;
  fs.enoc_flit_corrupt_rate = rate;
  fs.enoc_flit_drop_rate = rate / 2;
  fs.enoc_link_stuck_rate = rate / 10;
  fs.onoc_token_loss_rate = rate;
  fs.onoc_reservation_loss_rate = rate;
  fs.onoc_ring_drift_sigma_c = rate > 0 ? 25.0 : 0.0;
  return fs;
}

/// Sums `<prefix>.fault.<leaf>` across planes (hybrid registers one fault
/// block per layer: net.el.fault.* and net.op.fault.*).
std::uint64_t fault_counter(const StatRegistry& stats, const char* leaf) {
  std::uint64_t total = 0;
  const std::string want = std::string(".fault.") + leaf;
  for (const std::string& name : stats.names()) {
    if (name.size() >= want.size() &&
        name.compare(name.size() - want.size(), want.size(), want) == 0) {
      total += stats.counter_value(name);
    }
  }
  return total;
}

/// Mean recovery penalty across every plane's fault accumulator.
double penalty_mean(StatRegistry& stats) {
  double sum = 0;
  std::uint64_t n = 0;
  for (const std::string& name : stats.names()) {
    const std::string want = ".fault.recovery_penalty_cycles";
    if (name.size() >= want.size() &&
        name.compare(name.size() - want.size(), want.size(), want) == 0) {
      const Accumulator& a = stats.accumulator(name);
      sum += a.sum();
      n += a.count();
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

struct Cell {
  const char* kind_label;
  core::NetKind kind;
  double rate;
  core::ReplayResult result{};
  std::string stats_report;
};

core::NetSpec spec_for(const Cell& c) {
  core::NetSpec spec;
  spec.kind = c.kind;
  spec.fault = regime(c.rate);
  return spec;
}

int run(bool smoke) {
  using bench::verdict;

  fullsys::AppParams app;
  app.name = "jacobi";
  app.cores = 16;
  app.lines_per_core = smoke ? 8 : 16;
  app.iterations = smoke ? 1 : 2;
  fullsys::FullSysParams sys;
  if (smoke) {
    sys.l1_sets = 8;
    sys.l1_ways = 2;
    sys.l2_sets = 32;
    sys.l2_ways = 4;
  }
  const trace::Trace trace = core::run_execution(app, core::NetSpec{}, sys).trace;
  const core::ReplayTrace rt(trace);

  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 0.02}
            : std::vector<double>{0.0, 0.001, 0.005, 0.02};
  constexpr std::pair<const char*, core::NetKind> kKinds[] = {
      {"enoc", core::NetKind::kEnoc},
      {"onoc-token", core::NetKind::kOnocToken},
      {"onoc-setup", core::NetKind::kOnocSetup},
      {"hybrid", core::NetKind::kHybrid},
  };

  std::vector<Cell> cells;
  for (const auto& [label, kind] : kKinds) {
    for (const double rate : rates) {
      cells.push_back(Cell{label, kind, rate, {}, {}});
    }
  }
  parallel_for(cells.size(), [&](std::size_t i) {
    core::ReplaySession session(rt, spec_for(cells[i]), core::ReplayConfig{});
    session.run();
    cells[i].stats_report = session.result().stats.report();
    cells[i].result = session.take_result();
  });

  Table table("reliability: self-correction under injected faults");
  table.set_header({"network", "rate", "runtime", "slowdown", "faults",
                    "retrans", "recovered", "lost", "penalty (cyc)"});
  bool completion = true, cost = true;
  for (Cell& c : cells) {
    const Cell* base = nullptr;  // the kind's rate-0 row
    for (const Cell& b : cells) {
      if (b.kind == c.kind && b.rate == 0.0) base = &b;
    }
    completion = completion && c.result.runtime > 0 &&
                 !c.result.arrive_time.empty();
    if (c.rate == rates.back()) {
      cost = cost && c.result.runtime >= base->result.runtime;
    }
    StatRegistry& st = c.result.stats;
    const std::uint64_t fired = fault_counter(st, "flit_corrupt") +
                                fault_counter(st, "flit_drop") +
                                fault_counter(st, "token_loss") +
                                fault_counter(st, "reservation_loss") +
                                fault_counter(st, "optical_corrupt");
    table.add_row(
        {c.kind_label, Table::fmt(c.rate, 3),
         Table::fmt(static_cast<std::uint64_t>(c.result.runtime)),
         Table::fmt(static_cast<double>(c.result.runtime) /
                        static_cast<double>(base->result.runtime),
                    2) + "x",
         Table::fmt(fired), Table::fmt(fault_counter(st, "retransmissions")),
         Table::fmt(fault_counter(st, "messages_recovered")),
         Table::fmt(fault_counter(st, "messages_lost")),
         Table::fmt(penalty_mean(st), 1)});
  }

  // Determinism gate: the heaviest regime per fabric, replayed again on a
  // fresh session, must equal the sweep's run.
  bool deterministic = true;
  for (const auto& [label, kind] : kKinds) {
    const Cell heavy{label, kind, rates.back(), {}, {}};
    core::ReplaySession session(rt, spec_for(heavy), core::ReplayConfig{});
    session.run();
    const Cell* swept = nullptr;
    for (const Cell& c : cells) {
      if (c.kind == kind && c.rate == rates.back()) swept = &c;
    }
    deterministic = deterministic &&
                    session.result().arrive_time == swept->result.arrive_time &&
                    session.result().runtime == swept->result.runtime &&
                    session.result().stats.report() == swept->stats_report;
  }

  // Zero-rate identity gate: rate 0 equals a spec with no fault field at all.
  bool zero_identity = true;
  for (const auto& [label, kind] : kKinds) {
    core::NetSpec plain;
    plain.kind = kind;
    core::ReplaySession session(rt, plain, core::ReplayConfig{});
    session.run();
    const Cell* zero = nullptr;
    for (const Cell& c : cells) {
      if (c.kind == kind && c.rate == 0.0) zero = &c;
    }
    zero_identity = zero_identity &&
                    session.result().arrive_time == zero->result.arrive_time &&
                    session.result().stats.report() == zero->stats_report;
  }

  RunMetrics m = bench::bench_metrics(table, "TAB_reliability");
  m.manifest.set("app", app.name);
  m.manifest.set("smoke", smoke ? "1" : "0");
  for (const auto& [k, v] : regime(rates.back()).manifest_entries()) {
    m.manifest.set("max_" + k, v);
  }
  bench::emit(table, "TAB_reliability", m);

  int rc = 0;
  rc |= verdict(completion, "every faulted replay ran to completion");
  rc |= verdict(deterministic,
                "heaviest regime bit-identical on a fresh session");
  rc |= verdict(zero_identity, "zero-rate regime identical to fault-free");
  rc |= verdict(cost, "recovery never makes the faulted fabric faster");
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
