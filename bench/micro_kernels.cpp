// Kernel performance gates: two controlled before/after comparisons of the
// simulator's hot kernels, each written as a machine-readable result under
// bench_results/ so the perf trajectory stays on record:
//
//  * event kernel (BENCH_micro_kernels.json): the banded calendar queue with
//    InlineFn callables against the seed implementation (std::function
//    closures in a single std::priority_queue), on a uniform and a
//    same-cycle-heavy (bursty) schedule. Bar: >= 1.5x on the bursty one.
//  * data plane (BENCH_data_plane.json): the quiescence-aware activity
//    scoreboard (tick only routers holding flits) against the seed policy of
//    ticking every router every cycle, on a sparse low-load workload and at
//    saturation. The workloads are deterministic pre-computed injection
//    schedules — not the open-loop TrafficGenerator, whose per-node-per-
//    cycle generator events would mask the network-advance cost being
//    measured. Bars: >= 2.0x sparse, >= 0.95x saturated; both modes must
//    also produce identical activity hashes (bit-exact datapath).
//
// Both comparisons run their two sides as interleaved pairs
// (bench::interleaved_pairs), and each speedup is the median of the per-pair
// time ratios, so a host-speed shift during the bench moves both sides of a
// pair alike: at saturation both modes tick the same routers, so the ratio
// sits near 1.0 and separate best-of-N timings of each mode could not
// resolve the 5% margin.
//
// The binary exits non-zero if any bar fails. --smoke runs fewer pairs at a
// smaller data-plane scale, with the same bars; the Release CI job uses it
// as a perf regression gate. Any other argument is an error.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "enoc/enoc_network.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace sctm;

// ---------------------------------------------------------------------------
// Event-kernel before/after harness
// ---------------------------------------------------------------------------

/// The seed event queue, verbatim: heap-allocating std::function closures in
/// one (time, band, seq)-keyed std::priority_queue. Kept here as the
/// reference point the banded calendar queue is measured against.
class LegacyEventQueue {
 public:
  using Fn = std::function<void()>;
  enum Band : int { kNormal = 0, kLate = 1 };

  std::uint64_t push(Cycle t, Fn fn, Band band = kNormal) {
    const std::uint64_t seq = next_seq_++;
    heap_.push(Entry{t, band, seq, std::move(fn)});
    return seq;
  }
  bool empty() const { return heap_.empty(); }
  Cycle next_time() const { return heap_.empty() ? kNoCycle : heap_.top().time; }
  struct Popped {
    Cycle time;
    Fn fn;
  };
  Popped pop() {
    Entry& top = const_cast<Entry&>(heap_.top());
    Popped out{top.time, std::move(top.fn)};
    heap_.pop();
    return out;
  }

 private:
  struct Entry {
    Cycle time;
    int band;
    std::uint64_t seq;
    Fn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.band != b.band) return a.band > b.band;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Message-sized payload: the shape the networks capture on every delivery
/// event ([this, noc::Message] = 56 bytes with the queue's SBO budget; the
/// same closure forces a heap allocation under std::function).
struct Payload {
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5;
  std::uint32_t f = 6, g = 7;
};

struct KernelWorkload {
  const char* name;
  int cycles;
  int events_per_cycle;
  Cycle horizon;  // 0: all events land on the current cycle (bursty);
                  // else: uniform in [1, horizon] ahead
};

constexpr KernelWorkload kWorkloads[] = {
    // The replay/router pattern the tentpole optimizes for: bursts of
    // same-cycle work (schedule_in(0)) plus short hops.
    {"bursty_same_cycle", 8000, 48, 0},
    // Uniformly spread near/far mixture crossing the wheel horizon.
    {"uniform_spread", 30000, 12, 96},
};

/// Drives one workload through the banded EventQueue using the shipped
/// batch-dispatch path (drain_cycle). Returns the number of events run;
/// each event adds to `sink`.
std::uint64_t run_banded(const KernelWorkload& w, std::uint64_t& sink) {
  EventQueue q;
  Rng rng(42);
  const bool stop = false;
  std::uint64_t executed = 0;
  for (int c = 0; c < w.cycles; ++c) {
    const auto t = static_cast<Cycle>(c);
    for (int k = 0; k < w.events_per_cycle; ++k) {
      const Cycle at =
          w.horizon == 0 ? t : t + 1 + rng.next_below(w.horizon);
      Payload p;
      p.a = static_cast<std::uint64_t>(k);
      q.push(at, [p, &sink] { sink += p.a + p.g; });
    }
    while (!q.empty() && q.next_time() == t) {
      executed += q.drain_cycle(t, stop);
    }
  }
  // Drain the tail beyond the last generator cycle.
  while (!q.empty()) {
    const Cycle t = q.next_time();
    executed += q.drain_cycle(t, stop);
  }
  return executed;
}

/// Same workload through the seed kernel's per-event pop loop.
std::uint64_t run_legacy(const KernelWorkload& w, std::uint64_t& sink) {
  LegacyEventQueue q;
  Rng rng(42);
  std::uint64_t executed = 0;
  for (int c = 0; c < w.cycles; ++c) {
    const auto t = static_cast<Cycle>(c);
    for (int k = 0; k < w.events_per_cycle; ++k) {
      const Cycle at =
          w.horizon == 0 ? t : t + 1 + rng.next_below(w.horizon);
      Payload p;
      p.a = static_cast<std::uint64_t>(k);
      q.push(at, [p, &sink] { sink += p.a + p.g; });
    }
    while (!q.empty() && q.next_time() == t) {
      auto e = q.pop();
      e.fn();
      ++executed;
    }
  }
  while (!q.empty()) {
    auto e = q.pop();
    e.fn();
    ++executed;
  }
  return executed;
}

struct KernelResult {
  std::string name;
  std::uint64_t events = 0;
  double legacy_meps = 0;  // million events/second, at each side's
  double banded_meps = 0;  // median run time
  double speedup = 0;      // median per-pair legacy/banded time
  int banded_wins = 0;     // pairs in which the banded queue ran faster
};

int run_event_kernel_comparison(int pairs) {
  std::vector<KernelResult> results;
  for (const auto& w : kWorkloads) {
    // Warmup + agreement check: both kernels run the same closures.
    std::uint64_t banded_sum = 0, legacy_sum = 0;
    const std::uint64_t n_banded = run_banded(w, banded_sum);
    const std::uint64_t n_legacy = run_legacy(w, legacy_sum);
    if (n_banded != n_legacy || banded_sum != legacy_sum) {
      std::fprintf(stderr,
                   "event-kernel bench: %s diverged between the banded "
                   "(%llu events) and legacy (%llu events) kernels\n",
                   w.name, static_cast<unsigned long long>(n_banded),
                   static_cast<unsigned long long>(n_legacy));
      return 1;
    }
    std::uint64_t sink = 0;
    const bench::PairTiming t = bench::interleaved_pairs(
        pairs, [&] { return bench::seconds_of([&] { run_banded(w, sink); }); },
        [&] { return bench::seconds_of([&] { run_legacy(w, sink); }); });
    KernelResult r;
    r.name = w.name;
    r.events = n_banded;
    r.banded_meps = static_cast<double>(r.events) / t.a_s / 1e6;
    r.legacy_meps = static_cast<double>(r.events) / t.b_s / 1e6;
    r.speedup = t.ratio;
    r.banded_wins = t.a_wins;
    results.push_back(r);
  }

  std::printf("\nevent kernel: banded calendar queue vs seed priority queue "
              "(%d interleaved pairs)\n",
              pairs);
  std::printf("%-20s %12s %14s %14s %9s %13s\n", "workload", "events",
              "legacy Mev/s", "banded Mev/s", "speedup", "wins banded");
  for (const auto& r : results) {
    std::printf("%-20s %12llu %14.2f %14.2f %8.2fx %10d/%d\n", r.name.c_str(),
                static_cast<unsigned long long>(r.events), r.legacy_meps,
                r.banded_meps, r.speedup, r.banded_wins, pairs);
  }

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) {
    RunMetrics m;
    m.manifest.tool = "bench/micro_kernels event_kernel";
    m.manifest.created = now_iso8601();
    m.manifest.set("kernel",
                   std::string("banded calendar wheel + InlineFn vs "
                               "std::priority_queue + std::function"));
    m.manifest.set("pairs", pairs);
    JsonWriter jw;
    jw.begin_object();
    jw.key("workloads");
    jw.begin_array();
    for (const auto& r : results) {
      jw.begin_object();
      jw.key("name");
      jw.value(r.name);
      jw.key("events");
      jw.value(r.events);
      jw.key("legacy_meps");
      jw.value(r.legacy_meps);
      jw.key("banded_meps");
      jw.value(r.banded_meps);
      jw.key("speedup");
      jw.value(r.speedup);
      jw.key("banded_faster_pairs");
      jw.value(r.banded_wins);
      jw.end_object();
    }
    jw.end_array();
    jw.key("bar");
    jw.begin_object();
    jw.key("workload");
    jw.value("bursty_same_cycle");
    jw.key("required_speedup");
    jw.value(1.5);
    jw.end_object();
    jw.end_object();
    m.set_results_json(std::move(jw).str());
    m.write_file("bench_results/BENCH_micro_kernels.json");
  }

  const double bursty = results.front().speedup;
  const bool ok = bursty >= 1.5;
  std::printf("[%s] event kernel speedup on same-cycle-heavy workload: "
              "%.2fx (bar: 1.50x)\n\n",
              ok ? "OK" : "FAIL", bursty);
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Data-plane (activity scoreboard) before/after harness
// ---------------------------------------------------------------------------

struct ScheduledMsg {
  Cycle at;
  NodeId src;
  NodeId dst;
  std::uint32_t bytes;
};

struct DataPlaneWorkload {
  const char* name;
  int width;
  int height;
  std::vector<ScheduledMsg> msgs;
};

/// Sparse: a 256-router mesh where at most a handful of routers ever hold
/// flits at once — one short message every ~30 cycles over a long horizon.
/// This is the trace-replay shape the scoreboard targets: the clock runs,
/// but almost every router is idle on almost every cycle.
DataPlaneWorkload sparse_workload(int scale) {
  DataPlaneWorkload w{"sparse_low_load", 16, 16, {}};
  Rng rng(101);
  const int n = w.width * w.height;
  const int count = 1500 * scale;
  Cycle t = 0;
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(n));
    auto dst = static_cast<NodeId>(rng.next_below(n));
    if (dst == src) dst = (dst + 1) % n;
    w.msgs.push_back({t, src, dst, 64});
    t += 25 + static_cast<Cycle>(rng.next_below(10));
  }
  return w;
}

/// Saturated: every cycle, a quarter of a 64-router mesh injects — the
/// active set is essentially the whole fabric, so the scoreboard's win is
/// gone and the bench guards that its bookkeeping costs (nearly) nothing.
DataPlaneWorkload saturated_workload(int scale) {
  DataPlaneWorkload w{"saturated", 8, 8, {}};
  Rng rng(202);
  const int n = w.width * w.height;
  const Cycle horizon = static_cast<Cycle>(1500) * scale;
  for (Cycle t = 0; t < horizon; ++t) {
    for (int k = 0; k < 16; ++k) {
      const auto src = static_cast<NodeId>(rng.next_below(n));
      auto dst = static_cast<NodeId>(rng.next_below(n));
      if (dst == src) dst = (dst + 1) % n;
      w.msgs.push_back({t, src, dst, 64});
    }
  }
  return w;
}

struct DataPlaneRun {
  std::uint64_t activity_hash = 0;
  std::uint64_t active_cycles = 0;
  std::uint64_t router_ticks = 0;
  std::uint64_t delivered = 0;
};

DataPlaneRun run_data_plane(const DataPlaneWorkload& w, bool exhaustive) {
  Simulator sim;
  const auto topo = noc::Topology::mesh(w.width, w.height);
  enoc::EnocNetwork net(sim, "enoc", topo, enoc::EnocParams{});
  net.set_exhaustive_tick_for_test(exhaustive);
  MsgId next_id = 1;
  for (const auto& m : w.msgs) {
    sim.schedule_at(m.at, [&net, &next_id, &m] {
      noc::Message msg;
      msg.id = next_id++;
      msg.src = m.src;
      msg.dst = m.dst;
      msg.size_bytes = m.bytes;
      msg.cls = noc::MsgClass::kData;
      net.inject(msg);
    });
  }
  sim.run();
  DataPlaneRun out;
  out.activity_hash = net.activity_hash();
  out.active_cycles = net.active_cycles();
  out.router_ticks = net.router_ticks();
  out.delivered = net.delivered_count();
  return out;
}

struct DataPlaneResult {
  std::string name;
  std::uint64_t active_cycles = 0;
  std::uint64_t delivered = 0;
  std::uint64_t ticks_exhaustive = 0;
  std::uint64_t ticks_scoreboard = 0;
  double exhaustive_mcps = 0;  // million simulated network cycles/second,
  double scoreboard_mcps = 0;  // at each mode's median run time
  double speedup = 0;          // median per-pair exhaustive/scoreboard time
  int scoreboard_wins = 0;     // pairs in which the scoreboard ran faster
};

/// Times `pairs` interleaved (scoreboard, exhaustive) run pairs of `w`
/// (bench::interleaved_pairs). Fills the result's rates (from each mode's
/// median time) and its speedup (the median per-pair time ratio).
void time_data_plane_pairs(const DataPlaneWorkload& w, int pairs,
                           DataPlaneResult& r) {
  const bench::PairTiming t = bench::interleaved_pairs(
      pairs,
      [&] { return bench::seconds_of([&] { run_data_plane(w, false); }); },
      [&] { return bench::seconds_of([&] { run_data_plane(w, true); }); });
  const auto cycles = static_cast<double>(r.active_cycles);
  r.scoreboard_mcps = cycles / t.a_s / 1e6;
  r.exhaustive_mcps = cycles / t.b_s / 1e6;
  r.speedup = t.ratio;
  r.scoreboard_wins = t.a_wins;
}

int run_data_plane_comparison(int pairs, int scale) {
  struct Case {
    DataPlaneWorkload workload;
    double bar;
  };
  const Case cases[] = {
      {sparse_workload(scale), 2.0},
      {saturated_workload(scale), 0.95},
  };

  std::vector<DataPlaneResult> results;
  bool all_ok = true;
  for (const auto& c : cases) {
    const auto& w = c.workload;
    // Correctness cross-check doubles as warmup: both scheduling policies
    // must move every flit identically.
    const DataPlaneRun sb = run_data_plane(w, /*exhaustive=*/false);
    const DataPlaneRun ex = run_data_plane(w, /*exhaustive=*/true);
    if (sb.activity_hash != ex.activity_hash ||
        sb.active_cycles != ex.active_cycles ||
        sb.delivered != ex.delivered) {
      std::fprintf(stderr,
                   "data-plane bench: %s diverged between scoreboard and "
                   "exhaustive ticking\n",
                   w.name);
      return 1;
    }
    DataPlaneResult r;
    r.name = w.name;
    r.active_cycles = sb.active_cycles;
    r.delivered = sb.delivered;
    r.ticks_exhaustive = ex.router_ticks;
    r.ticks_scoreboard = sb.router_ticks;
    time_data_plane_pairs(w, pairs, r);
    if (r.speedup < c.bar) all_ok = false;
    results.push_back(r);
  }

  std::printf("\ndata plane: activity scoreboard vs tick-all-routers "
              "(%d interleaved pairs)\n",
              pairs);
  std::printf("%-18s %10s %9s %13s %13s %12s %12s %9s %9s\n", "workload",
              "cycles", "msgs", "ticks(all)", "ticks(sb)", "all Mcyc/s",
              "sb Mcyc/s", "speedup", "wins sb");
  for (const auto& r : results) {
    std::printf(
        "%-18s %10llu %9llu %13llu %13llu %12.2f %12.2f %8.2fx %6d/%d\n",
        r.name.c_str(), static_cast<unsigned long long>(r.active_cycles),
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.ticks_exhaustive),
        static_cast<unsigned long long>(r.ticks_scoreboard), r.exhaustive_mcps,
        r.scoreboard_mcps, r.speedup, r.scoreboard_wins, pairs);
  }

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) {
    RunMetrics m;
    m.manifest.tool = "bench/micro_kernels data_plane";
    m.manifest.created = now_iso8601();
    m.manifest.set("kernel",
                   std::string("quiescence-aware activity scoreboard vs "
                               "exhaustive per-cycle router ticking"));
    m.manifest.set("pairs", pairs);
    JsonWriter jw;
    jw.begin_object();
    jw.key("workloads");
    jw.begin_array();
    for (const auto& r : results) {
      jw.begin_object();
      jw.key("name");
      jw.value(r.name);
      jw.key("active_cycles");
      jw.value(r.active_cycles);
      jw.key("messages");
      jw.value(r.delivered);
      jw.key("router_ticks_exhaustive");
      jw.value(r.ticks_exhaustive);
      jw.key("router_ticks_scoreboard");
      jw.value(r.ticks_scoreboard);
      jw.key("exhaustive_mcps");
      jw.value(r.exhaustive_mcps);
      jw.key("scoreboard_mcps");
      jw.value(r.scoreboard_mcps);
      jw.key("speedup");
      jw.value(r.speedup);
      jw.key("scoreboard_faster_pairs");
      jw.value(r.scoreboard_wins);
      jw.end_object();
    }
    jw.end_array();
    jw.key("bars");
    jw.begin_array();
    for (const auto& [workload, bar] :
         {std::pair{"sparse_low_load", 2.0}, std::pair{"saturated", 0.95}}) {
      jw.begin_object();
      jw.key("workload");
      jw.value(workload);
      jw.key("required_speedup");
      jw.value(bar);
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
    m.set_results_json(std::move(jw).str());
    m.write_file("bench_results/BENCH_data_plane.json");
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    const double bar = cases[i].bar;
    const bool ok = results[i].speedup >= bar;
    std::printf("[%s] data-plane speedup on %s: %.2fx (bar: %.2fx)\n",
                ok ? "OK" : "FAIL", results[i].name.c_str(),
                results[i].speedup, bar);
  }
  std::printf("\n");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc == 2 && std::string(argv[1]) == "--smoke";
  if (argc > 1 && !smoke) {
    std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
    return 2;
  }
  const int pairs = smoke ? 21 : 31;
  const int scale = smoke ? 1 : 2;
  const int kernel_rc = run_event_kernel_comparison(pairs);
  const int data_plane_rc = run_data_plane_comparison(pairs, scale);
  return kernel_rc != 0 || data_plane_rc != 0 ? 1 : 0;
}
