// Differential tests for the session reset/reuse protocol: a ReplaySession
// recycled through Simulator::reset() + Network::reset() must be
// bit-identical to fresh construction on every network kind and in both
// replay modes, including after rebind() and across randomized walks over the
// design space. The pinned-output suite additionally holds every kind's
// complete replay output to hashes recorded at commit 3e04a31.
#include "core/replay_session.hpp"

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/driver.hpp"
#include "noc/routing.hpp"
#include "tracestore/format.hpp"

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

// Reset-reuse differential: one session run repeatedly must reproduce the
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
// snapshot (the allocation-free steady-state path): every reused pass must
// match the first pass of a freshly built session.
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
  cfg.convergence_threshold = 0.5;

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
// kinds (pure reset when the kind repeats, rebind when it changes) must
// match fresh construction at every step. Seeded, so failures reproduce.
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
// torn down: the session keeps its network and its spec.
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
  session.rebind(ideal);  // still the bound spec: no rebuild
  EXPECT_EQ(&session.network(), before);
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

// --- Pinned serial outputs -------------------------------------------------

// One FNV-1a hash per network kind over a replay's complete output: the
// inject and arrive schedules, the kernel event count and the rendered stat
// registry. The expected values were computed at commit 3e04a31; they pin
// event order, arbitration tie-breaks and stat accounting of the serial
// engine. Three workloads per kind: the 16-core jacobi trace at full window,
// the same trace at window 1 (iterative refinement), and a jacobi trace
// captured on a 4x4x2 mesh3d.
std::uint64_t output_hash(const ReplayResult& r) {
  tracestore::Fnv1a64 h;
  h.update(r.inject_time.data(), r.inject_time.size() * sizeof(Cycle));
  h.update(r.arrive_time.data(), r.arrive_time.size() * sizeof(Cycle));
  h.update_scalar(r.events);
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

struct PinnedHashes {
  std::uint64_t jacobi;
  std::uint64_t jacobi_window1;
  std::uint64_t mesh3d;
};

// Indexed like kAllKinds.
constexpr PinnedHashes kPinned[] = {
    {0xa59a172ce67e464bull, 0x9bb15448e8ca9493ull, 0x595c8ece50700319ull},
    {0xb5b572faebc973bcull, 0x1b6effa03957c04dull, 0xcf3826a7a034806aull},
    {0x13a5bab8eff2d7a5ull, 0x03a4cdf83b45e03dull, 0xeb811f0f41917351ull},
    {0xca14ea48a2f1e906ull, 0xaeab1f4d3302f573ull, 0x5b8f2498dada21dfull},
    {0x892271a0423cb233ull, 0x3617e139ce5fc1b7ull, 0xa1d5baf0a1774bf4ull},
    {0x34b691c8bea5ba2eull, 0x30791413513220eaull, 0x8ffca26f2fadd89dull},
};

const PinnedHashes& pinned_for(NetKind kind) {
  for (std::size_t i = 0; i < std::size(kAllKinds); ++i) {
    if (kAllKinds[i] == kind) return kPinned[i];
  }
  throw std::logic_error("no pinned hashes for this kind");
}

std::uint64_t replay_hash(const ReplayTrace& rt, const NetSpec& spec,
                          const ReplayConfig& cfg) {
  ReplaySession session(rt, spec, cfg);
  return output_hash(session.run());
}

class PinnedSerialOutput : public ::testing::TestWithParam<NetKind> {};

TEST_P(PinnedSerialOutput, JacobiFullWindow) {
  EXPECT_EQ(replay_hash(jacobi_rt(), spec_of(GetParam()), ReplayConfig{}),
            pinned_for(GetParam()).jacobi);
}

TEST_P(PinnedSerialOutput, JacobiWindowOneIterates) {
  ReplayConfig cfg;
  cfg.dependency_window = 1;
  EXPECT_EQ(replay_hash(jacobi_rt(), spec_of(GetParam()), cfg),
            pinned_for(GetParam()).jacobi_window1);
}

TEST_P(PinnedSerialOutput, Mesh3DFullWindow) {
  const NetSpec spec = spec_on(GetParam(), noc::Topology::mesh3d(4, 4, 2));
  EXPECT_EQ(replay_hash(mesh3d_rt(), spec, ReplayConfig{}),
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

// The pins above run the ENoC only with round-robin arbiters and 4 VCs.
// These hold the router's other datapath configurations to the same output
// hash: each arbiter kind, VA request masks wider than one 64-bit word,
// dateline VCs, adaptive routing and multi-cycle links and credits. The
// values were computed at commit 116ff49. The mesh3d configuration replays
// the 4x4x2 jacobi capture (32 nodes); every other one replays the 16-core
// jacobi capture.
struct PinnedEnocConfig {
  const char* name;
  void (*apply)(NetSpec&);
  std::uint64_t jacobi;
  std::uint64_t jacobi_window1;
};

constexpr PinnedEnocConfig kPinnedEnocConfigs[] = {
    {"matrix",
     [](NetSpec& s) { s.enoc.arbiter = enoc::ArbiterKind::kMatrix; },
     0x3c54ae05902b6254ull, 0xdceb1d9f71ae06ccull},
    {"vcs8", [](NetSpec& s) { s.enoc.vcs_per_vnet = 8; },
     0x65bf595791873bf1ull, 0xa99f1db607b7c2fbull},
    {"matrix_vcs8",
     [](NetSpec& s) {
       s.enoc.arbiter = enoc::ArbiterKind::kMatrix;
       s.enoc.vcs_per_vnet = 8;
     },
     0xe0001e7d76f917e7ull, 0x5b25d9ddad15d96dull},
    {"torus_dor",
     [](NetSpec& s) {
       s.topo = noc::Topology::torus(4, 4);
       s.enoc.routing = noc::RoutingAlgo::kTorusDor;
     },
     0x6b178ebd4710ae46ull, 0x578ba87c921d2880ull},
    {"odd_even_adaptive",
     [](NetSpec& s) {
       s.enoc.routing = noc::RoutingAlgo::kOddEven;
       s.enoc.adaptive = true;
     },
     0x4a8699c47bfc1545ull, 0xbe56873e919cd0e2ull},
    {"link3_credit2",
     [](NetSpec& s) {
       s.enoc.link_latency = 3;
       s.enoc.credit_latency = 2;
     },
     0x7e525b91efe6df78ull, 0xb451f9894c50e67bull},
    {"mesh3d_vcs8",
     [](NetSpec& s) {
       s = spec_on(NetKind::kEnoc, noc::Topology::mesh3d(4, 4, 2));
       s.enoc.vcs_per_vnet = 8;
     },
     0xfdb252ab63b3391full, 0x8f337aae1b4cd5c5ull},
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
  EXPECT_EQ(replay_hash(trace(), spec(), ReplayConfig{}), GetParam().jacobi);
}

TEST_P(PinnedEnocOutput, JacobiWindowOneIterates) {
  ReplayConfig cfg;
  cfg.dependency_window = 1;
  EXPECT_EQ(replay_hash(trace(), spec(), cfg), GetParam().jacobi_window1);
}

INSTANTIATE_TEST_SUITE_P(EnocConfigs, PinnedEnocOutput,
                         ::testing::ValuesIn(kPinnedEnocConfigs),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// --- Rebind rule ------------------------------------------------------------

// Parameter-only spec changes rebuild the network like any other change and
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

// An equal spec keeps the network (the pure reset-reuse path).
TEST(InPlaceRebind, EqualSpecIsNoop) {
  const ReplayTrace& rt = jacobi_rt();
  const ReplayConfig cfg;
  const NetSpec spec = spec_of(NetKind::kEnoc);

  ReplaySession session(rt, spec, cfg);
  const ReplayResult fresh = fresh_run(rt, spec, cfg);
  expect_identical(session.run(), fresh, "before");
  const noc::Network* before = &session.network();
  session.rebind(spec);
  EXPECT_EQ(&session.network(), before);  // same object, not rebuilt
  expect_identical(session.run(), fresh, "after noop rebind");
}

}  // namespace
}  // namespace sctm::core
