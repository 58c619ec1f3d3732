// Differential tests for session reuse: a long-lived ReplaySession, which
// builds its network at the start of every pass, must be bit-identical to a
// freshly constructed one on every network kind and in both replay modes,
// including after rebind() and across randomized walks over the design
// space. The pinned-output suite additionally holds every kind's replay
// schedules and stat report to hashes unchanged since commit 3e04a31, and
// its kernel event count to a pinned number.
#include "core/replay_session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/driver.hpp"
#include "core/experiment.hpp"
#include "noc/routing.hpp"
#include "support/trace_builder.hpp"
#include "trace/record.hpp"
#include "tracestore/format.hpp"
#include "tracestore/trace_store.hpp"

namespace sctm::core {
namespace {

fullsys::AppParams small_app(const char* name) {
  fullsys::AppParams app;
  app.name = name;
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  return app;
}

fullsys::FullSysParams small_sys() {
  fullsys::FullSysParams sys;
  sys.l1_sets = 8;
  sys.l1_ways = 2;
  sys.l2_sets = 32;
  sys.l2_ways = 4;
  return sys;
}

NetSpec spec_of(NetKind kind) {
  NetSpec s;
  s.kind = kind;
  return s;
}

constexpr NetKind kAllKinds[] = {NetKind::kIdeal,     NetKind::kEnoc,
                                 NetKind::kOnocToken, NetKind::kOnocSetup,
                                 NetKind::kOnocSwmr,  NetKind::kHybrid};

// One shared capture (the tests only compare replays against each other, so
// a single trace exercises every network kind).
const ReplayTrace& shared_rt() {
  static const trace::Trace trace =
      run_execution(small_app("fft"), spec_of(NetKind::kEnoc), small_sys())
          .trace;
  static const ReplayTrace rt(trace);
  return rt;
}

// The 16-core jacobi capture the pinned-output and in-place rebind tests use.
const ReplayTrace& jacobi_rt() {
  static const trace::Trace trace =
      run_execution(small_app("jacobi"), spec_of(NetKind::kEnoc), small_sys())
          .trace;
  static const ReplayTrace rt(trace);
  return rt;
}

ReplayConfig config_for(ReplayMode mode) {
  ReplayConfig cfg;
  cfg.mode = mode;
  return cfg;
}

// Fresh construction: a throwaway session running the full engine.
ReplayResult fresh_run(const ReplayTrace& rt, const NetSpec& spec,
                       const ReplayConfig& cfg) {
  return run_replay(rt, spec, cfg).result;
}

// Full-schedule equality: every replayed time, the derived runtime, the
// kernel event count and the iteration count. This is the "bit-identical"
// acceptance bar — not a summary-statistic comparison.
void expect_identical(const ReplayResult& reused, const ReplayResult& fresh,
                      const std::string& what) {
  EXPECT_EQ(reused.inject_time, fresh.inject_time) << what;
  EXPECT_EQ(reused.arrive_time, fresh.arrive_time) << what;
  EXPECT_EQ(reused.runtime, fresh.runtime) << what;
  EXPECT_EQ(reused.events, fresh.events) << what;
  EXPECT_EQ(reused.iterations, fresh.iterations) << what;
}

class SessionKindMode
    : public ::testing::TestWithParam<std::tuple<NetKind, ReplayMode>> {};

// Reuse differential: one session run repeatedly must reproduce the
// fresh-construction result exactly, on every network kind in both modes.
TEST_P(SessionKindMode, ResetReuseMatchesFresh) {
  const auto [kind, mode] = GetParam();
  const ReplayTrace& rt = shared_rt();
  const NetSpec spec = spec_of(kind);
  const ReplayConfig cfg = config_for(mode);

  const ReplayResult fresh = fresh_run(rt, spec, cfg);
  ReplaySession session(rt, spec, cfg);
  for (int round = 1; round <= 3; ++round) {
    const ReplayResult& reused = session.run();
    expect_identical(reused, fresh, "run round " + std::to_string(round));
  }
}

// Same differential for the single-pass entry point, which defers the stat
// snapshot: every reused pass must match the first pass of a freshly built
// session.
TEST_P(SessionKindMode, RunPassReuseMatchesReplayOnce) {
  const auto [kind, mode] = GetParam();
  const ReplayTrace& rt = shared_rt();
  const NetSpec spec = spec_of(kind);
  const ReplayConfig cfg = config_for(mode);

  const ReplayResult fresh = ReplaySession(rt, spec, cfg).run_pass();
  ReplaySession session(rt, spec, cfg);
  for (int round = 1; round <= 3; ++round) {
    const ReplayResult& reused = session.run_pass();
    expect_identical(reused, fresh, "pass round " + std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SessionKindMode,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values(ReplayMode::kNaive,
                                         ReplayMode::kSelfCorrecting)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      name += std::get<1>(info.param) == ReplayMode::kNaive ? "_naive"
                                                            : "_sctm";
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The iterative engine (truncated window, multi-pass refinement) recycles
// prev_inject_ and the pass log across runs; reuse must still converge to
// the identical trajectory.
TEST(ReplaySession, IterativeRefinementMatchesFresh) {
  const ReplayTrace& rt = shared_rt();
  NetSpec target = spec_of(NetKind::kIdeal);
  target.ideal.per_hop_latency = 20;  // force real correction work
  ReplayConfig cfg;
  cfg.dependency_window = 1;
  cfg.max_iterations = 12;

  const ReplayResult fresh = fresh_run(rt, target, cfg);
  ASSERT_GT(fresh.iterations, 1);  // the config must actually iterate

  ReplaySession session(rt, target, cfg);
  for (int round = 1; round <= 2; ++round) {
    const ReplayResult& reused = session.run();
    expect_identical(reused, fresh, "iterative round " + std::to_string(round));
    EXPECT_EQ(reused.iteration_log.size(), fresh.iteration_log.size());
    for (std::size_t i = 0; i < fresh.iteration_log.size(); ++i) {
      EXPECT_EQ(reused.iteration_log[i].iter, fresh.iteration_log[i].iter);
      EXPECT_DOUBLE_EQ(reused.iteration_log[i].residual,
                       fresh.iteration_log[i].residual);
      EXPECT_EQ(reused.iteration_log[i].events, fresh.iteration_log[i].events);
    }
  }
}

// rebind() swaps the network under a live session (what exploration does
// between unequal candidates); results before, after, and after rebinding
// back must all match fresh construction.
TEST(ReplaySession, RebindMatchesFresh) {
  const ReplayTrace& rt = shared_rt();
  const ReplayConfig cfg;
  const NetSpec enoc = spec_of(NetKind::kEnoc);
  const NetSpec ideal = spec_of(NetKind::kIdeal);

  const ReplayResult fresh_enoc = fresh_run(rt, enoc, cfg);
  const ReplayResult fresh_ideal = fresh_run(rt, ideal, cfg);

  ReplaySession session(rt, enoc, cfg);
  expect_identical(session.run(), fresh_enoc, "initial enoc");
  session.rebind(ideal);
  expect_identical(session.run(), fresh_ideal, "after rebind to ideal");
  session.rebind(enoc);
  expect_identical(session.run(), fresh_enoc, "after rebind back to enoc");
}

// Randomized walk: one session driven through a random sequence of network
// kinds (rerun when the kind repeats, rebind when it changes) must match
// fresh construction at every step. Seeded, so failures reproduce.
TEST(ReplaySession, RandomizedWalkMatchesFresh) {
  const ReplayTrace& rt = shared_rt();
  for (const ReplayMode mode :
       {ReplayMode::kNaive, ReplayMode::kSelfCorrecting}) {
    const ReplayConfig cfg = config_for(mode);
    std::map<int, ReplayResult> fresh;  // keyed by kind index, lazily filled
    Rng rng(0xC0FFEE + static_cast<std::uint64_t>(mode));

    int bound = static_cast<int>(rng.next_below(std::size(kAllKinds)));
    ReplaySession session(rt, spec_of(kAllKinds[bound]), cfg);
    for (int step = 0; step < 12; ++step) {
      const int pick = static_cast<int>(rng.next_below(std::size(kAllKinds)));
      if (pick != bound) {
        session.rebind(spec_of(kAllKinds[pick]));
        bound = pick;
      }
      auto it = fresh.find(bound);
      if (it == fresh.end()) {
        const NetSpec spec = spec_of(kAllKinds[bound]);
        it = fresh.emplace(bound, fresh_run(rt, spec, cfg)).first;
      }
      expect_identical(session.run(), it->second,
                       std::string("step ") + std::to_string(step) + " on " +
                           to_string(kAllKinds[bound]));
    }
  }
}

// A rebind whose network cannot be built leaves no network: every entry
// point that needs one throws a logic_error naming the failed rebind instead
// of dereferencing a dead network, and a later rebind recovers — including
// one back to the spec that was bound before the failure.
TEST(ReplaySession, RebindToUnbuildableSpecLeavesNoNetworkToRun) {
  const ReplayTrace& rt = jacobi_rt();
  const ReplayConfig cfg;
  const NetSpec ideal = spec_of(NetKind::kIdeal);
  NetSpec ring_on_mesh = spec_of(NetKind::kEnoc);
  ring_on_mesh.enoc.routing = noc::RoutingAlgo::kRingShortest;

  ReplaySession session(rt, ideal, cfg);
  EXPECT_THROW(session.rebind(ring_on_mesh), std::invalid_argument);
  const auto expect_unbound = [&](auto&& call, const char* what) {
    try {
      call();
      ADD_FAILURE() << what << " ran without a network";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(ring_on_mesh.describe()),
                std::string::npos)
          << what << ": " << e.what();
    }
  };
  expect_unbound([&] { session.run(); }, "run()");
  expect_unbound([&] { session.run_pass(); }, "run_pass()");
  expect_unbound([&] { (void)session.network(); }, "network()");

  session.rebind(ideal);
  expect_identical(session.run(), fresh_run(rt, ideal, cfg),
                   "rebind back to the old spec");
  const NetSpec enoc = spec_of(NetKind::kEnoc);
  session.rebind(enoc);
  expect_identical(session.run(), fresh_run(rt, enoc, cfg),
                   "rebind to a buildable spec");
}

// A spec with the wrong node count is rejected before the bound network is
// torn down: the session keeps its network and its factory.
TEST(ReplaySession, RebindToWrongNodeCountKeepsTheBoundNetwork) {
  const ReplayTrace& rt = jacobi_rt();
  const ReplayConfig cfg;
  const NetSpec ideal = spec_of(NetKind::kIdeal);
  NetSpec small = spec_of(NetKind::kEnoc);
  small.topo = noc::Topology::mesh(2, 2);

  ReplaySession session(rt, ideal, cfg);
  const noc::Network* before = &session.network();
  EXPECT_THROW(session.rebind(small), std::invalid_argument);
  EXPECT_EQ(&session.network(), before);
  expect_identical(session.run(), fresh_run(rt, ideal, cfg),
                   "after a rejected rebind");
}

// take_result() moves the schedule out and the next run must rebuild it
// from scratch — run_replay() depends on this.
TEST(ReplaySession, TakeResultLeavesSessionReusable) {
  const ReplayTrace& rt = shared_rt();
  const ReplayConfig cfg;
  const NetSpec spec = spec_of(NetKind::kEnoc);

  ReplaySession session(rt, spec, cfg);
  session.run();
  const ReplayResult taken = session.take_result();
  EXPECT_EQ(taken.inject_time.size(), rt.size());

  const ReplayResult& again = session.run();
  expect_identical(again, taken, "run after take_result");
}

// A zero-latency network: every message arrives in the cycle it is injected,
// either from inside inject() or from a zero-delay event, and the network
// records the order in which messages were injected.
class SameCycleNetwork final : public noc::Network {
 public:
  SameCycleNetwork(Simulator& sim, int nodes, bool deliver_inline,
                   std::vector<MsgId>& order)
      : Network(sim, "same-cycle", nodes),
        deliver_inline_(deliver_inline),
        order_(order) {}

  void inject(noc::Message msg) override {
    note_injected(msg);
    order_.push_back(msg.id);
    if (deliver_inline_) {
      deliver(msg);
      return;
    }
    sim().schedule_in(0, [this, msg] { deliver(msg); });
  }

 private:
  bool deliver_inline_;
  std::vector<MsgId>& order_;
};

// Records whose parents all arrive in one cycle become eligible in that
// cycle and are injected sorted by record (capture) order; a record that an
// injection of the cycle unlocks joins a later batch of the same cycle.
// Every record has size 0 and zero slack, so the whole trace replays at the
// captured cycles 0 and 5. The order is the one the engine produced when this
// test was written; the fixed point holds on top of it.
TEST(ReplaySession, SameCycleUnlocksKeepCaptureOrder) {
  const ReplayTrace rt(fixtures::make_trace(
      4, {{1, 0, 1, 0, 0},
          {2, 1, 2, 0, 0},
          {3, 2, 3, 0, 0, {2}},
          {4, 1, 0, 0, 0, {1}},  // unlocked before 3, injected after it
          {5, 3, 0, 0, 0},  // an anchor ordered after 3 and 4, injected first
          {6, 3, 1, 0, 0, {3, 4}},
          {7, 0, 2, 5, 5},
          {8, 2, 1, 5, 5, {7}},
          {9, 1, 3, 5, 5, {7, 8}}}));

  for (const bool deliver_inline : {true, false}) {
    std::vector<MsgId> order;
    const NetworkFactory factory = [&](Simulator& sim) {
      return std::make_unique<SameCycleNetwork>(sim, 4, deliver_inline, order);
    };
    ReplaySession session(rt, factory, ReplayConfig{});
    const ReplayResult& r = session.run();
    EXPECT_EQ(order, (std::vector<MsgId>{1, 2, 5, 3, 4, 6, 7, 8, 9}))
        << "inline delivery: " << deliver_inline;
    for (std::uint32_t i = 0; i < rt.size(); ++i) {
      EXPECT_EQ(r.inject_time[i], rt.inject_time(i)) << "record " << i;
    }
  }
}

// --- Pinned serial outputs -------------------------------------------------

// A replay's output, pinned in two parts. `hash` is an FNV-1a hash over what
// the replay simulates: the inject and arrive schedules and the rendered stat
// registry. `events` is the kernel event count, which measures how the engine
// got there. An engine change that leaves the simulation alone and only
// schedules fewer events moves `events` alone. The hashes pin event order,
// arbitration tie-breaks and stat accounting of the serial engine. Three
// workloads per kind: the 16-core jacobi trace at full window, the same trace
// at window 1 (iterative refinement), and a jacobi trace captured on a 4x4x2
// mesh3d.
struct PinnedOutput {
  std::uint64_t hash;
  std::uint64_t events;
};

std::uint64_t output_hash(const ReplayResult& r) {
  tracestore::Fnv1a64 h;
  h.update(r.inject_time.data(), r.inject_time.size() * sizeof(Cycle));
  h.update(r.arrive_time.data(), r.arrive_time.size() * sizeof(Cycle));
  const std::string report = r.stats.report();
  h.update(report.data(), report.size());
  return h.value();
}

NetSpec spec_on(NetKind kind, const noc::Topology& topo) {
  NetSpec s;
  s.kind = kind;
  s.topo = topo;
  return s;
}

const ReplayTrace& mesh3d_rt() {
  static const trace::Trace trace = [] {
    const noc::Topology topo = noc::Topology::mesh3d(4, 4, 2);
    fullsys::AppParams app = small_app("jacobi");
    app.cores = topo.node_count();
    return run_execution(app, spec_on(NetKind::kEnoc, topo), small_sys())
        .trace;
  }();
  static const ReplayTrace rt(trace);
  return rt;
}

struct PinnedKind {
  PinnedOutput jacobi;
  PinnedOutput jacobi_window1;
  PinnedOutput mesh3d;
};

// Indexed like kAllKinds.
constexpr PinnedKind kPinned[] = {
    {{0x4a878b8e4a101109ull, 2210},
     {0x4a878b8e4a101109ull, 6587},
     {0xcf555f795f7ddce8ull, 4209}},
    {{0xab764b38c1b63f23ull, 2937},
     {0xab764b38c1b63f23ull, 2937},
     {0xdf5793805f4c55efull, 3810}},
    {{0xcafdb96bef09227dull, 3127},
     {0x1e4f231b60cb7da4ull, 18770},
     {0x3bba7c7bdd48ec3bull, 6362}},
    {{0x3703152827438e4eull, 5849},
     {0x951d9f803df32195ull, 17557},
     {0x9a682ec4f7849718ull, 9700}},
    {{0xbe799fc7a3eed54cull, 3219},
     {0x491aa0ec84c13097ull, 12888},
     {0xfd6c4798762978d5ull, 6304}},
    {{0xe9733dceaba7504eull, 3302},
     {0xb28e9e69039526feull, 13189},
     {0x47ead6a2addc529bull, 6074}},
};

const PinnedKind& pinned_for(NetKind kind) {
  for (std::size_t i = 0; i < std::size(kAllKinds); ++i) {
    if (kAllKinds[i] == kind) return kPinned[i];
  }
  throw std::logic_error("no pinned outputs for this kind");
}

void expect_pinned(const ReplayTrace& rt, const NetSpec& spec,
                   const ReplayConfig& cfg, const PinnedOutput& pin) {
  ReplaySession session(rt, spec, cfg);
  const ReplayResult& r = session.run();
  const std::uint64_t hash = output_hash(r);
  EXPECT_EQ(hash, pin.hash) << std::hex << "hash 0x" << hash;
  EXPECT_EQ(r.events, pin.events);
}

class PinnedSerialOutput : public ::testing::TestWithParam<NetKind> {};

TEST_P(PinnedSerialOutput, JacobiFullWindow) {
  expect_pinned(jacobi_rt(), spec_of(GetParam()), ReplayConfig{},
                pinned_for(GetParam()).jacobi);
}

TEST_P(PinnedSerialOutput, JacobiWindowOneIterates) {
  ReplayConfig cfg;
  cfg.dependency_window = 1;
  expect_pinned(jacobi_rt(), spec_of(GetParam()), cfg,
                pinned_for(GetParam()).jacobi_window1);
}

TEST_P(PinnedSerialOutput, Mesh3DFullWindow) {
  const NetSpec spec = spec_on(GetParam(), noc::Topology::mesh3d(4, 4, 2));
  expect_pinned(mesh3d_rt(), spec, ReplayConfig{},
                pinned_for(GetParam()).mesh3d);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PinnedSerialOutput,
                         ::testing::ValuesIn(kAllKinds), [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The execution-driven run that each pin above replays the capture of, run
// on every kind: the 16-core jacobi capture's content hash (its meta and
// every record), the application runtime, the kernel event count and an
// FNV-1a of the stats report. They hold how the run simulates and how it is
// recorded. The last three are FNV-1as of the capture's file bytes: as v1,
// as v2, and as v2 at 7 records per chunk; they hold what the writers emit.
struct PinnedCapture {
  std::uint64_t content_hash;
  Cycle runtime;
  std::uint64_t events;
  std::uint64_t stats_hash;
  std::uint64_t v1_hash;
  std::uint64_t v2_hash;
  std::uint64_t v2_chunk7_hash;
};

// Indexed like kAllKinds.
constexpr PinnedCapture kPinnedCaptures[] = {
    {0x753256314e43bb45ull, 1759, 2911, 0xc9a9f78afd09a679ull,
     0x14113674198ea63bull, 0x7291e48c437388d2ull, 0x9df6d1eca7069b1eull},
    {0xf5aad2e9bf9115c2ull, 2127, 3475, 0x5efed6f57fb3e016ull,
     0x7f35ab23a320a85eull, 0x40395dedc1529132ull, 0xd204ccb1f6427a41ull},
    {0x15b859de7c39ec60ull, 2182, 3697, 0x76ab303b9582a164ull,
     0x93b61594f7b4469eull, 0x469e70405a08ac27ull, 0xd2c7ae6738b70d9eull},
    {0x6543ace046a88ba3ull, 3165, 6397, 0x3955ec4133fc8314ull,
     0xf3482c32b0bbb131ull, 0xb7cabe28ac373388ull, 0x1d65923cd75e5309ull},
    {0xa2f29c0816a8356eull, 1908, 3714, 0xdf8d6e606c1fa58cull,
     0x0452f756bf3398f8ull, 0xc34bd9847c458303ull, 0xf1590b16ebb9be62ull},
    {0x6ee973e969f22f21ull, 2110, 3894, 0xa024c27d48f8572bull,
     0x7d5c6cdb747d54a3ull, 0xec844485e1606011ull, 0x92774deaca5a429cull},
};

std::uint64_t bytes_hash(const std::string& bytes) {
  tracestore::Fnv1a64 h;
  h.update(bytes.data(), bytes.size());
  return h.value();
}

class PinnedCaptureOutput : public ::testing::TestWithParam<NetKind> {};

TEST_P(PinnedCaptureOutput, Jacobi) {
  const PinnedCapture& pin =
      kPinnedCaptures[std::find(std::begin(kAllKinds), std::end(kAllKinds),
                                GetParam()) -
                      std::begin(kAllKinds)];
  const ExecutionRun run =
      run_execution(small_app("jacobi"), spec_of(GetParam()), small_sys());
  const std::uint64_t hash = tracestore::content_hash(run.trace);
  tracestore::Fnv1a64 stats;
  stats.update(run.stats_report.data(), run.stats_report.size());
  EXPECT_EQ(hash, pin.content_hash) << std::hex << "hash 0x" << hash;
  EXPECT_EQ(run.runtime, pin.runtime);
  EXPECT_EQ(run.events, pin.events);
  EXPECT_EQ(stats.value(), pin.stats_hash)
      << std::hex << "stats 0x" << stats.value();

  std::ostringstream v1;
  tracestore::write_v1(run.trace, v1);
  EXPECT_EQ(bytes_hash(v1.str()), pin.v1_hash)
      << std::hex << "v1 0x" << bytes_hash(v1.str());
  std::ostringstream v2;
  tracestore::write_v2(run.trace, v2);
  EXPECT_EQ(bytes_hash(v2.str()), pin.v2_hash)
      << std::hex << "v2 0x" << bytes_hash(v2.str());
  std::ostringstream v2_chunk7;
  tracestore::write_v2(run.trace, v2_chunk7, 7);
  EXPECT_EQ(bytes_hash(v2_chunk7.str()), pin.v2_chunk7_hash)
      << std::hex << "v2 chunk 7 0x" << bytes_hash(v2_chunk7.str());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PinnedCaptureOutput,
                         ::testing::ValuesIn(kAllKinds), [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The pins above run the ENoC only with round-robin arbiters and 4 VCs.
// These hold the router's other datapath configurations to the same two-part
// output: each arbiter kind, VA request masks wider than one 64-bit word,
// dateline VCs, adaptive routing, multi-cycle links and credits, and link
// faults, whose draws follow the order in which routers emit their hops. The
// mesh3d configuration replays the 4x4x2 jacobi capture (32 nodes); every
// other one replays the 16-core jacobi capture.
struct PinnedEnocConfig {
  const char* name;
  void (*apply)(NetSpec&);
  PinnedOutput jacobi;
  PinnedOutput jacobi_window1;
};

constexpr PinnedEnocConfig kPinnedEnocConfigs[] = {
    {"matrix",
     [](NetSpec& s) { s.enoc.arbiter = enoc::ArbiterKind::kMatrix; },
     {0xa3805b3a82d9161cull, 2943},
     {0x441c4eb2e1886f6cull, 5886}},
    {"vcs8", [](NetSpec& s) { s.enoc.vcs_per_vnet = 8; },
     {0x000a2df25c3039dfull, 2918},
     {0x7bbd75527c8dd207ull, 5836}},
    {"matrix_vcs8",
     [](NetSpec& s) {
       s.enoc.arbiter = enoc::ArbiterKind::kMatrix;
       s.enoc.vcs_per_vnet = 8;
     },
     {0xc38726be71602d41ull, 2942},
     {0x433fd24185a5ca71ull, 5884}},
    {"torus_dor",
     [](NetSpec& s) {
       s.topo = noc::Topology::torus(4, 4);
       s.enoc.routing = noc::RoutingAlgo::kTorusDor;
     },
     {0xf707ed90086c4356ull, 2961},
     {0x000237304e54c667ull, 11911}},
    {"odd_even_adaptive",
     [](NetSpec& s) {
       s.enoc.routing = noc::RoutingAlgo::kOddEven;
       s.enoc.adaptive = true;
     },
     {0xb053171cdc7e52f6ull, 2933},
     {0x5fc236b6d4dad0c9ull, 5899}},
    {"link3_credit2",
     [](NetSpec& s) {
       s.enoc.link_latency = 3;
       s.enoc.credit_latency = 2;
     },
     {0xe442c29e17fa19fbull, 3179},
     {0xba45b817c1fe3040ull, 6364}},
    {"mesh3d_vcs8",
     [](NetSpec& s) {
       s = spec_on(NetKind::kEnoc, noc::Topology::mesh3d(4, 4, 2));
       s.enoc.vcs_per_vnet = 8;
     },
     {0x2920e55870d99a20ull, 3784},
     {0xb82af6899f8339feull, 11382}},
    {"faults",
     [](NetSpec& s) {
       s.fault.seed = 7;
       s.fault.enoc_flit_corrupt_rate = 0.02;
       s.fault.enoc_flit_drop_rate = 0.01;
       s.fault.enoc_link_stuck_rate = 0.002;
     },
     {0x630112f69c692869ull, 3861},
     {0x083b35159e94a926ull, 31109}},
};

void PrintTo(const PinnedEnocConfig& c, std::ostream* os) { *os << c.name; }

class PinnedEnocOutput : public ::testing::TestWithParam<PinnedEnocConfig> {
 protected:
  static NetSpec spec() {
    NetSpec s = spec_of(NetKind::kEnoc);
    GetParam().apply(s);
    return s;
  }
  static const ReplayTrace& trace() {
    return spec().topo.node_count() == 16 ? jacobi_rt() : mesh3d_rt();
  }
};

TEST_P(PinnedEnocOutput, JacobiFullWindow) {
  expect_pinned(trace(), spec(), ReplayConfig{}, GetParam().jacobi);
}

TEST_P(PinnedEnocOutput, JacobiWindowOneIterates) {
  ReplayConfig cfg;
  cfg.dependency_window = 1;
  expect_pinned(trace(), spec(), cfg, GetParam().jacobi_window1);
}

INSTANTIATE_TEST_SUITE_P(EnocConfigs, PinnedEnocOutput,
                         ::testing::ValuesIn(kPinnedEnocConfigs),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// --- Proven stop ------------------------------------------------------------

// A truncated-window run does not simulate a pass that its re-derived bounds
// prove would repeat the last one. The schedule, stat report and residual
// stay those of a run that simulates the repeat (the hashes below were taken
// from an engine that did); only the pass count, events and pass log lose
// the repeat.

// At W = 0 every record's bound is its injection, so every bound binds, and
// on the faster ideal network every re-derived bound is lower. The schedule
// still moves: a stop on "new bound <= injection" alone would end it here.
TEST(ProvenStop, WindowZeroOntoFasterTargetKeepsIterating) {
  ReplayConfig cfg;
  cfg.dependency_window = 0;
  ReplaySession session(jacobi_rt(), spec_of(NetKind::kIdeal), cfg);
  const ReplayResult& r = session.run();
  EXPECT_GT(r.iterations, 1);
  EXPECT_EQ(output_hash(r), 0x3812a9b3f755252full)
      << std::hex << "hash 0x" << output_hash(r);
}

// On the capture network the first pass of any window W >= 1 reproduces the
// full-window schedule, and its re-derived bounds prove it: one pass.
TEST(ProvenStop, CaptureNetworkWindowsEndAfterOnePass) {
  const ReplayTrace& rt = jacobi_rt();
  const NetSpec spec = spec_of(NetKind::kEnoc);
  const ReplayResult full = fresh_run(rt, spec, ReplayConfig{});
  for (const std::uint32_t w : {1u, 2u, 4u}) {
    ReplayConfig cfg;
    cfg.dependency_window = w;
    ReplaySession session(rt, spec, cfg);
    const ReplayResult& r = session.run();
    const std::string what = "W=" + std::to_string(w);
    expect_identical(r, full, what);  // one pass, one pass's events
    EXPECT_EQ(r.residual, 0.0) << what;
    EXPECT_EQ(r.iteration_log.size(), 1u) << what;
    EXPECT_EQ(output_hash(r), output_hash(full)) << what;
  }
}

// fft captured on ideal and replayed on the ENoC at W = 1: pass 2 moves the
// schedule and pass 3 would repeat it, so the run ends after two passes at
// residual exactly 0, with two `iter N` phases.
TEST(ProvenStop, StopsAfterAMovingPassAtResidualZero) {
  const ReplayTrace rt(
      run_execution(small_app("fft"), spec_of(NetKind::kIdeal), {}).trace);
  ReplayConfig cfg;
  cfg.dependency_window = 1;
  const ReplayRun run = run_replay(rt, spec_of(NetKind::kEnoc), cfg);
  const ReplayResult& r = run.result;
  ASSERT_EQ(r.iterations, 2);
  ASSERT_EQ(r.iteration_log.size(), 2u);
  EXPECT_GE(r.iteration_log[1].residual, ReplayConfig::convergence_threshold);
  EXPECT_EQ(r.residual, 0.0);
  EXPECT_EQ(output_hash(r), 0x40e0f2decea0371aull)
      << std::hex << "hash 0x" << output_hash(r);
  EXPECT_EQ(r.events, r.iteration_log[0].events + r.iteration_log[1].events);
  EXPECT_EQ(run.phases.size(), 2u);
}

// --- Rebind -----------------------------------------------------------------

// Parameter-only spec changes build a new network like any other rebind and
// must be bit-identical to a freshly built session, including the walk back
// to the original parameters.
TEST(InPlaceRebind, EnocParameterChangesMatchFresh) {
  const ReplayTrace& rt = jacobi_rt();
  const ReplayConfig cfg;

  NetSpec base = spec_of(NetKind::kEnoc);
  NetSpec wide = base;
  wide.enoc.vcs_per_vnet = 4;  // resizes every per-VC structure
  wide.enoc.buffer_depth = 2;
  NetSpec matrix = base;
  matrix.enoc.arbiter = enoc::ArbiterKind::kMatrix;

  ReplaySession session(rt, base, cfg);
  for (const NetSpec* spec : {&wide, &matrix, &base}) {
    session.rebind(*spec);
    const ReplayResult fresh = fresh_run(rt, *spec, cfg);
    expect_identical(session.run(), fresh, spec->describe());
  }
}

TEST(InPlaceRebind, IdealParameterChangesMatchFresh) {
  const ReplayTrace& rt = jacobi_rt();
  const ReplayConfig cfg;

  NetSpec base = spec_of(NetKind::kIdeal);
  NetSpec slow = base;
  slow.ideal.per_hop_latency = 7;
  slow.ideal.bytes_per_cycle = 4;

  ReplaySession session(rt, base, cfg);
  session.rebind(slow);
  expect_identical(session.run(), fresh_run(rt, slow, cfg),
                   "ideal reparam");
  session.rebind(base);
  expect_identical(session.run(), fresh_run(rt, base, cfg),
                   "ideal back to base");
}

// Kind, topology and ONoC parameter changes rebuild the network,
// transparently.
TEST(InPlaceRebind, StructuralChangesFallBackToRebuild) {
  const ReplayTrace& rt = jacobi_rt();
  const ReplayConfig cfg;

  ReplaySession session(rt, spec_of(NetKind::kEnoc), cfg);
  session.rebind(spec_of(NetKind::kIdeal));  // kind change
  expect_identical(session.run(),
                   fresh_run(rt, spec_of(NetKind::kIdeal), cfg),
                   "kind change");

  NetSpec onoc_a = spec_of(NetKind::kOnocToken);
  session.rebind(onoc_a);
  NetSpec onoc_b = onoc_a;
  onoc_b.onoc.wavelengths += 4;
  session.rebind(onoc_b);
  expect_identical(session.run(), fresh_run(rt, onoc_b, cfg),
                   "onoc param change rebuilds");

  NetSpec torus = spec_of(NetKind::kEnoc);
  torus.topo = noc::Topology::torus(4, 4);
  torus.enoc.routing = noc::RoutingAlgo::kTorusDor;
  session.rebind(torus);  // topology change
  expect_identical(session.run(), fresh_run(rt, torus, cfg),
                   "topology change rebuilds");
}

// A NetSpec names one network however it was built: a config and code that
// set the same fields give equal specs, which replay to one schedule (the
// onoc-setup control mesh runs on the spec's own enoc block).
TEST(NetSpec, ConfigAndCodeBuildTheSameOnocSetupNetwork) {
  const NetSpec parsed = netspec_from_config(
      Config::from_string("net.kind = onoc-setup\nenoc.link_latency = 3\n"),
      "net");
  NetSpec built = spec_of(NetKind::kOnocSetup);
  built.enoc.link_latency = 3;
  EXPECT_TRUE(parsed == built);
  const ReplayConfig cfg;
  expect_identical(fresh_run(shared_rt(), parsed, cfg),
                   fresh_run(shared_rt(), built, cfg), "config vs code");
}

}  // namespace
}  // namespace sctm::core
