// Kernel-swap determinism regression (guards DESIGN.md §4 rules (1)-(2)).
//
// The event kernel's ordering contract — (time, band, seq) dispatch, late
// band after every normal event of the cycle — is what makes (a) execution
// runs bit-reproducible and (b) SCTM replay on the capture network a
// bit-exact fixed point. This suite pins both properties across every
// network backend whose arbitration is fully driven by replayed messages
// (ideal, electrical, ONOC-token, ONOC-SWMR, hybrid), so any future queue
// change that perturbs intra-cycle order fails loudly here rather than as a
// silent accuracy drift in the paper figures.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/driver.hpp"

namespace sctm {
namespace {

using core::NetKind;

struct Case {
  NetKind kind;
  const char* app;
};

std::string case_name(const Case& c) {
  std::string s = std::string(core::to_string(c.kind)) + "_" + c.app;
  for (auto& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

class KernelDeterminism : public ::testing::TestWithParam<Case> {};

TEST_P(KernelDeterminism, ReExecutionAndFixedPointAreBitExact) {
  const auto [kind, app_name] = GetParam();

  fullsys::AppParams app;
  app.name = app_name;
  app.cores = 16;
  app.lines_per_core = 6;
  app.iterations = 1;

  core::NetSpec spec;
  spec.kind = kind;

  // Rule-level guard 1: execution-driven runs are bit-reproducible — the
  // kernel never lets container internals break same-cycle ties.
  const auto first = core::run_execution(app, spec, {});
  const auto second = core::run_execution(app, spec, {});
  ASSERT_GT(first.trace.records.size(), 50u);
  EXPECT_EQ(first.runtime, second.runtime);
  EXPECT_EQ(first.events, second.events);
  ASSERT_EQ(first.trace, second.trace);

  // Rule-level guard 2: SCTM replay on the capture network reproduces the
  // captured schedule exactly (late-band injection flushes in capture order,
  // router pickup on the cycle after injection).
  const auto rep = core::run_replay(core::ReplayTrace(first.trace), spec, {});
  ASSERT_EQ(rep.result.inject_time.size(), first.trace.records.size());
  for (std::size_t i = 0; i < first.trace.records.size(); ++i) {
    ASSERT_EQ(rep.result.inject_time[i], first.trace.records.inject[i])
        << "record " << i << " injected off the captured cycle";
    ASSERT_EQ(rep.result.arrive_time[i], first.trace.records.arrive[i])
        << "record " << i << " arrived off the captured cycle";
  }
  EXPECT_EQ(rep.result.runtime, first.trace.capture_runtime);
}

std::vector<Case> all_cases() {
  const NetKind kinds[] = {NetKind::kIdeal, NetKind::kEnoc,
                           NetKind::kOnocToken, NetKind::kOnocSwmr,
                           NetKind::kHybrid};
  std::vector<Case> out;
  for (const auto k : kinds) {
    out.push_back({k, "fft"});
  }
  // A second traffic shape (nearest-neighbor stencil) on the two kinds with
  // the most intra-cycle arbitration.
  out.push_back({NetKind::kEnoc, "jacobi"});
  out.push_back({NetKind::kOnocToken, "jacobi"});
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllNetworks, KernelDeterminism,
                         ::testing::ValuesIn(all_cases()),
                         [](const auto& info) { return case_name(info.param); });

}  // namespace
}  // namespace sctm
