#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/component.hpp"

namespace sctm {
namespace {

TEST(Simulator, TimeAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Cycle> seen;
  sim.schedule_at(5, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(2, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<Cycle>{2, 5}));
  EXPECT_EQ(sim.now(), 5u);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::logic_error);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Cycle when = 0;
  sim.schedule_at(4, [&] { sim.schedule_in(3, [&] { when = sim.now(); }); });
  sim.run();
  EXPECT_EQ(when, 7u);
}

TEST(Simulator, ZeroDelayRunsSameCycleAfterPending) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1, [&] {
    order.push_back(0);
    sim.schedule_in(0, [&] { order.push_back(2); });
  });
  sim.schedule_at(1, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 1u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(5, [&] { ++ran; });
  sim.schedule_at(15, [&] { ++ran; });
  const auto n = sim.run_until(10);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), 10u);  // advanced to deadline, not past it
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), 15u);
}

TEST(Simulator, RunUntilStopsExactlyAtDeadlineMidBucket) {
  // Deadline falls between occupied cycles of the same wheel window: the
  // kernel must drain through the deadline, park time exactly on it, and
  // leave the rest of the window untouched.
  Simulator sim;
  std::vector<Cycle> seen;
  for (const Cycle t : {Cycle{5}, Cycle{39}, Cycle{41}, Cycle{70}}) {
    sim.schedule_at(t, [&, t] { seen.push_back(t); });
  }
  const auto n = sim.run_until(40);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(seen, (std::vector<Cycle>{5, 39}));
  EXPECT_EQ(sim.now(), 40u);
  EXPECT_EQ(sim.pending_events(), 2u);
  // Resuming picks up the remainder in order.
  sim.run_until(41);
  EXPECT_EQ(seen, (std::vector<Cycle>{5, 39, 41}));
  EXPECT_EQ(sim.now(), 41u);
  sim.run();
  EXPECT_EQ(seen, (std::vector<Cycle>{5, 39, 41, 70}));
}

TEST(Simulator, RunUntilDeadlineOnOccupiedCycleRunsThatCycle) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(10, [&] { ++ran; });
  sim.schedule_at(10, [&] { ++ran; });
  sim.run_until(10);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, LateBandRunsAfterAllNormalEventsOfTheCycle) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_late(3, [&] { order.push_back(99); });
  sim.schedule_at(3, [&] {
    order.push_back(0);
    // Normal event scheduled during the cycle still precedes the late band.
    sim.schedule_in(0, [&] { order.push_back(1); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 99}));
}

TEST(Simulator, StopHaltsDispatch) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(1, [&] {
    ++ran;
    sim.stop();
  });
  sim.schedule_at(2, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.stopped());
}

TEST(Simulator, StepExecutesOne) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(1, [&] { ++ran; });
  sim.schedule_at(2, [&] { ++ran; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CountsEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_EQ(sim.events_scheduled(), 5u);
}

class Probe : public Component {
 public:
  Probe(Simulator& sim) : Component(sim, "probe") {}
  void bump() { ++counter("hits"); }
  void sample(double v) { accumulator("vals").add(v); }
};

TEST(Component, StatsUseNamePrefix) {
  Simulator sim;
  Probe p(sim);
  p.bump();
  p.bump();
  p.sample(2.0);
  EXPECT_EQ(sim.stats().counter_value("probe.hits"), 2u);
  EXPECT_DOUBLE_EQ(sim.stats().accumulator("probe.vals").mean(), 2.0);
}

TEST(Component, NowTracksSimulator) {
  Simulator sim;
  Probe p(sim);
  Cycle seen = 0;
  sim.schedule_at(9, [&] { seen = p.now(); });
  sim.run();
  EXPECT_EQ(seen, 9u);
}

}  // namespace
}  // namespace sctm
