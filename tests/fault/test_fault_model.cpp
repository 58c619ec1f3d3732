// Unit tests for the fault-injection layer (DESIGN.md §11): FaultSpec
// parsing/validation/manifest echo, the FaultModel draw streams and the
// bounded-retry recovery ladder, the TokenRing loss hook, and the loss-budget
// BER erosion model. Network-level lossless-under-faults is covered at the
// end; the thread-count determinism matrix lives in
// test_fault_determinism.cpp.
#include "fault/fault_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "enoc/enoc_network.hpp"
#include "fault/fault_spec.hpp"
#include "onoc/loss.hpp"
#include "onoc/onoc_network.hpp"
#include "onoc/token.hpp"

namespace sctm::fault {
namespace {

// --- FaultSpec ------------------------------------------------------------

TEST(FaultSpec, DefaultIsInert) {
  const FaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_TRUE(spec.manifest_entries().empty());
  EXPECT_NO_THROW(spec.validate());
}

TEST(FaultSpec, AnyNonzeroRateEnables) {
  for (auto set : {+[](FaultSpec& s) { s.enoc_flit_corrupt_rate = 0.1; },
                   +[](FaultSpec& s) { s.enoc_flit_drop_rate = 0.1; },
                   +[](FaultSpec& s) { s.enoc_link_stuck_rate = 0.1; },
                   +[](FaultSpec& s) { s.onoc_token_loss_rate = 0.1; },
                   +[](FaultSpec& s) { s.onoc_reservation_loss_rate = 0.1; },
                   +[](FaultSpec& s) { s.onoc_ring_drift_sigma_c = 5.0; },
                   +[](FaultSpec& s) { s.onoc_laser_degradation_db = 0.5; }}) {
    FaultSpec spec;
    set(spec);
    EXPECT_TRUE(spec.enabled());
    EXPECT_FALSE(spec.manifest_entries().empty());
  }
  // Changing only the seed or the protocol constants does not enable faults.
  FaultSpec seeded;
  seeded.seed = 99;
  seeded.max_retries = 7;
  EXPECT_FALSE(seeded.enabled());
}

TEST(FaultSpec, ValidateRejectsOutOfRange) {
  FaultSpec bad_rate;
  bad_rate.enoc_flit_corrupt_rate = 1.5;
  EXPECT_THROW(bad_rate.validate(), std::invalid_argument);
  FaultSpec neg_rate;
  neg_rate.onoc_token_loss_rate = -0.1;
  EXPECT_THROW(neg_rate.validate(), std::invalid_argument);
  FaultSpec bad_retries;
  bad_retries.max_retries = -1;
  EXPECT_THROW(bad_retries.validate(), std::invalid_argument);
  FaultSpec bad_regen;
  bad_regen.onoc_token_regen_cycles = 0;
  EXPECT_THROW(bad_regen.validate(), std::invalid_argument);
}

TEST(FaultSpec, WithSeedChangesOnlyTheSeed) {
  FaultSpec spec;
  spec.enoc_flit_corrupt_rate = 0.25;
  const FaultSpec other = spec.with_seed(77);
  EXPECT_EQ(other.seed, 77u);
  EXPECT_EQ(other.enoc_flit_corrupt_rate, 0.25);
  FaultSpec expect = spec;
  expect.seed = 77;
  EXPECT_EQ(other, expect);
}

TEST(FaultSpec, FromConfigRoundTrip) {
  const auto cfg = Config::from_string(
      "fault.seed = 7\n"
      "fault.enoc_flit_corrupt_rate = 0.01\n"
      "fault.onoc_token_loss_rate = 0.02\n"
      "fault.onoc_ring_drift_sigma_c = 25\n"
      "fault.max_retries = 5\n"
      "fault.nack_cycles = 8\n");
  const FaultSpec spec = FaultSpec::from_config(cfg);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.enoc_flit_corrupt_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.onoc_token_loss_rate, 0.02);
  EXPECT_DOUBLE_EQ(spec.onoc_ring_drift_sigma_c, 25.0);
  EXPECT_EQ(spec.max_retries, 5);
  EXPECT_EQ(spec.nack_cycles, 8u);
  // Untouched fields keep their defaults.
  EXPECT_DOUBLE_EQ(spec.enoc_flit_drop_rate, 0.0);
  EXPECT_EQ(spec.onoc_token_regen_cycles, 64u);
  EXPECT_TRUE(spec.enabled());
}

TEST(FaultSpec, FromConfigEmptyIsInert) {
  const FaultSpec spec = FaultSpec::from_config(Config::from_string(""));
  EXPECT_EQ(spec, FaultSpec{});
  EXPECT_FALSE(spec.enabled());
}

TEST(FaultSpec, FromConfigRejectsUnknownFaultKey) {
  // A typo'd rate must not silently leave the fabric perfect; the error
  // names the offending key and line.
  const auto cfg =
      Config::from_string("fault.seed = 3\nfault.flit_corrupt_rate = 0.1\n");
  try {
    (void)FaultSpec::from_config(cfg);
    FAIL() << "expected unknown-key error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fault.flit_corrupt_rate"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(FaultSpec, FromConfigRejectsOutOfRangeIntegersNamingTheKey) {
  for (const std::string key :
       {"fault.max_retries = 4294967299", "fault.nack_cycles = -1",
        "fault.seed = -1", "fault.enoc_link_stuck_cycles = -5"}) {
    try {
      (void)FaultSpec::from_config(Config::from_string(key + "\n"));
      ADD_FAILURE() << "accepted: " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key.substr(0, key.find(' '))),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultSpec, FromConfigValidates) {
  const auto cfg = Config::from_string("fault.enoc_flit_drop_rate = 2.0\n");
  EXPECT_THROW((void)FaultSpec::from_config(cfg), std::invalid_argument);
}

TEST(FaultSpec, ManifestEchoesNonDefaultFields) {
  FaultSpec spec;
  spec.seed = 9;
  spec.onoc_token_loss_rate = 0.05;
  spec.max_retries = 2;
  const auto entries = spec.manifest_entries();
  ASSERT_FALSE(entries.empty());
  bool saw_seed = false, saw_rate = false, saw_retries = false,
       saw_default = false;
  for (const auto& [k, v] : entries) {
    if (k == "fault.seed") saw_seed = (v == "9");
    if (k == "fault.onoc_token_loss_rate") saw_rate = true;
    if (k == "fault.max_retries") saw_retries = (v == "2");
    if (k == "fault.enoc_flit_drop_rate") saw_default = true;  // still 0
  }
  EXPECT_TRUE(saw_seed);
  EXPECT_TRUE(saw_rate);
  EXPECT_TRUE(saw_retries);
  EXPECT_FALSE(saw_default);  // defaults are not echoed
}

// --- FaultModel draw streams ----------------------------------------------

FaultSpec busy_spec() {
  FaultSpec spec;
  spec.seed = 11;
  spec.enoc_flit_corrupt_rate = 0.5;
  spec.enoc_flit_drop_rate = 0.3;
  spec.enoc_link_stuck_rate = 0.2;
  spec.onoc_token_loss_rate = 0.4;
  spec.onoc_reservation_loss_rate = 0.4;
  return spec;
}

TEST(FaultModel, RegistersCountersUnderPrefix) {
  StatRegistry stats;
  FaultModel model(busy_spec(), stats, "net.fault", 4);
  for (const char* name :
       {"net.fault.flit_corrupt", "net.fault.flit_drop", "net.fault.link_stuck",
        "net.fault.token_loss", "net.fault.reservation_loss",
        "net.fault.optical_corrupt", "net.fault.retransmissions",
        "net.fault.messages_lost", "net.fault.messages_recovered"}) {
    EXPECT_TRUE(stats.has_counter(name)) << name;
    EXPECT_EQ(stats.counter_value(name), 0u) << name;
  }
  EXPECT_TRUE(stats.has_accumulator("net.fault.recovery_penalty_cycles"));
}

TEST(FaultModel, ConstructionValidatesSpec) {
  StatRegistry stats;
  FaultSpec bad;
  bad.enoc_flit_corrupt_rate = 3.0;
  EXPECT_THROW(FaultModel(bad, stats, "f", 1), std::invalid_argument);
}

TEST(FaultModel, ZeroRateDrawsNeverFireAndTouchNoStream) {
  // Zero-rate classes short-circuit before the RNG, so an enabled spec with
  // some classes off draws an identical sequence for the live ones.
  FaultSpec only_corrupt;
  only_corrupt.seed = 13;
  only_corrupt.enoc_flit_corrupt_rate = 0.5;
  FaultSpec with_dead_classes = only_corrupt;  // drop/stuck rates stay 0

  StatRegistry sa, sb;
  FaultModel a(only_corrupt, sa, "f", 2);
  FaultModel b(with_dead_classes, sb, "f", 2);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(b.draw_flit_drop());
    EXPECT_FALSE(b.draw_link_stuck_onset());
    EXPECT_EQ(a.draw_flit_corrupt(), b.draw_flit_corrupt()) << i;
  }
  EXPECT_EQ(sb.counter_value("f.flit_drop"), 0u);
  EXPECT_EQ(sb.counter_value("f.link_stuck"), 0u);
}

TEST(FaultModel, DrawsCountWhatTheyReport) {
  StatRegistry stats;
  FaultModel model(busy_spec(), stats, "f", 4);
  std::uint64_t corrupt = 0, drop = 0, stuck = 0, resv = 0;
  for (int i = 0; i < 1000; ++i) {
    corrupt += model.draw_flit_corrupt() ? 1 : 0;
    drop += model.draw_flit_drop() ? 1 : 0;
    stuck += model.draw_link_stuck_onset() ? 1 : 0;
    resv += model.draw_reservation_loss() ? 1 : 0;
  }
  EXPECT_GT(corrupt, 0u);
  EXPECT_GT(drop, 0u);
  EXPECT_GT(stuck, 0u);
  EXPECT_GT(resv, 0u);
  EXPECT_EQ(stats.counter_value("f.flit_corrupt"), corrupt);
  EXPECT_EQ(stats.counter_value("f.flit_drop"), drop);
  EXPECT_EQ(stats.counter_value("f.link_stuck"), stuck);
  EXPECT_EQ(stats.counter_value("f.reservation_loss"), resv);

  model.note_stuck_hit();  // attributed to corruption, no draw
  EXPECT_EQ(stats.counter_value("f.flit_corrupt"), corrupt + 1);
}

TEST(FaultModel, TokenLossStreamsArePerChannel) {
  // Each channel owns its child stream: the draw sequence on one channel is
  // independent of how draws interleave with other channels, so one
  // channel's token-loss schedule never depends on another channel's
  // traffic.
  const FaultSpec spec = busy_spec();
  StatRegistry sa, sb;
  FaultModel interleaved(spec, sa, "f", 3);
  FaultModel sequential(spec, sb, "f", 3);

  std::vector<std::vector<bool>> inter(3), seq(3);
  for (int i = 0; i < 100; ++i) {
    for (int c = 0; c < 3; ++c) {
      inter[static_cast<std::size_t>(c)].push_back(
          interleaved.draw_token_loss(c));
    }
  }
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 100; ++i) {
      seq[static_cast<std::size_t>(c)].push_back(
          sequential.draw_token_loss(c));
    }
  }
  EXPECT_EQ(inter, seq);

  // Every loss is counted as it is drawn.
  std::uint64_t losses = 0;
  for (const auto& chan : inter) {
    losses += static_cast<std::uint64_t>(
        std::count(chan.begin(), chan.end(), true));
  }
  EXPECT_GT(losses, 0u);
  EXPECT_EQ(sa.counter_value("f.token_loss"), losses);
  EXPECT_EQ(sb.counter_value("f.token_loss"), losses);
}

TEST(FaultModel, OpticalCorruptDegenerateProbabilities) {
  StatRegistry stats;
  FaultModel model(busy_spec(), stats, "f", 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(model.draw_optical_corrupt(0.0));
    EXPECT_FALSE(model.draw_optical_corrupt(-1.0));
    EXPECT_TRUE(model.draw_optical_corrupt(1.0));
  }
  EXPECT_EQ(stats.counter_value("f.optical_corrupt"), 100u);
}

// Every replay pass builds its network, and with it a new model from the
// same spec: each model must draw the same schedule on every stream.
TEST(FaultModel, SameSpecDrawsTheSameSchedule) {
  const auto draws = [] {
    StatRegistry stats;
    FaultModel model(busy_spec(), stats, "f", 3);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(model.draw_flit_corrupt());
      out.push_back(model.draw_flit_drop());
      out.push_back(model.draw_reservation_loss());
      out.push_back(model.draw_optical_corrupt(0.5));
      out.push_back(model.draw_token_loss(i % 3));
    }
    return out;
  };
  EXPECT_EQ(draws(), draws());
}

TEST(FaultModel, SeedsDecorrelateStreams) {
  const FaultSpec a = busy_spec();
  const FaultSpec b = a.with_seed(~a.seed);  // the hybrid per-layer derivation
  StatRegistry sa, sb;
  FaultModel ma(a, sa, "f", 1), mb(b, sb, "f", 1);
  int same = 0;
  for (int i = 0; i < 256; ++i) {
    same += ma.draw_flit_corrupt() == mb.draw_flit_corrupt() ? 1 : 0;
  }
  EXPECT_LT(same, 256);  // not the same stream
}

// --- Bounded-retry recovery ladder ----------------------------------------

TEST(FaultModel, RetryLadderIsBoundedAndCounted) {
  FaultSpec spec = busy_spec();
  spec.max_retries = 3;
  StatRegistry stats;
  FaultModel model(spec, stats, "f", 1);

  const MsgId id = 7;
  // Attempts 1..max_retries: retransmit, each counted.
  for (int attempt = 1; attempt <= 3; ++attempt) {
    EXPECT_EQ(model.on_corrupt_message(id, 100 + attempt),
              FaultModel::Action::kRetransmit)
        << attempt;
    EXPECT_EQ(stats.counter_value("f.retransmissions"),
              static_cast<std::uint64_t>(attempt));
    EXPECT_EQ(model.open_retries(), 1u);
  }
  // Budget exhausted: give up, close the episode, count the loss.
  EXPECT_EQ(model.on_corrupt_message(id, 200), FaultModel::Action::kGiveUp);
  EXPECT_EQ(stats.counter_value("f.messages_lost"), 1u);
  EXPECT_EQ(stats.counter_value("f.messages_recovered"), 0u);
  EXPECT_EQ(model.open_retries(), 0u);
  // The detect-to-surface penalty of the lost message was recorded.
  const Accumulator& pen = stats.accumulator("f.recovery_penalty_cycles");
  EXPECT_EQ(pen.count(), 1u);
  EXPECT_DOUBLE_EQ(pen.max(), 200.0 - 101.0);

  // A later corruption of the same id is a fresh episode.
  EXPECT_EQ(model.on_corrupt_message(id, 300),
            FaultModel::Action::kRetransmit);
  EXPECT_EQ(model.open_retries(), 1u);
}

TEST(FaultModel, CleanDeliveryClosesEpisodeWithPenalty) {
  StatRegistry stats;
  FaultModel model(busy_spec(), stats, "f", 1);

  // Never-corrupted messages are a no-op.
  model.on_clean_delivery(1, 50);
  EXPECT_EQ(stats.counter_value("f.messages_recovered"), 0u);

  EXPECT_EQ(model.on_corrupt_message(2, 100),
            FaultModel::Action::kRetransmit);
  EXPECT_EQ(model.on_corrupt_message(2, 140),
            FaultModel::Action::kRetransmit);  // second attempt, same episode
  model.on_clean_delivery(2, 180);
  EXPECT_EQ(stats.counter_value("f.messages_recovered"), 1u);
  EXPECT_EQ(stats.counter_value("f.messages_lost"), 0u);
  EXPECT_EQ(model.open_retries(), 0u);
  const Accumulator& pen = stats.accumulator("f.recovery_penalty_cycles");
  EXPECT_EQ(pen.count(), 1u);
  EXPECT_DOUBLE_EQ(pen.mean(), 80.0);  // first detect 100 -> delivered 180

  EXPECT_EQ(model.nack_delay(), FaultSpec{}.nack_cycles);
}

TEST(FaultModel, ZeroRetryBudgetSurfacesImmediately) {
  FaultSpec spec = busy_spec();
  spec.max_retries = 0;
  StatRegistry stats;
  FaultModel model(spec, stats, "f", 1);
  EXPECT_EQ(model.on_corrupt_message(9, 10), FaultModel::Action::kGiveUp);
  EXPECT_EQ(stats.counter_value("f.retransmissions"), 0u);
  EXPECT_EQ(stats.counter_value("f.messages_lost"), 1u);
}

// --- TokenRing loss hook ---------------------------------------------------

TEST(TokenRingFaults, LoseTokenStallsChannelUntilRegeneration) {
  onoc::TokenRing ring(/*nodes=*/4, /*hop_latency=*/1);
  EXPECT_EQ(ring.acquire(/*s=*/0, /*t=*/0, /*hold=*/10), 0u);
  EXPECT_EQ(ring.free_at(), 10u);

  // Loss while busy: the regeneration timeout stacks on the channel horizon.
  ring.lose_token(/*t=*/5, /*regen=*/64);
  EXPECT_EQ(ring.free_at(), 74u);  // max(5, 10) + 64
  // The regenerated token sits at the home node: writer 0 is granted the
  // instant the channel frees, writer 2 waits two hops more.
  EXPECT_EQ(ring.position_at(74), 0);
  EXPECT_EQ(ring.acquire(/*s=*/2, /*t=*/20, /*hold=*/1), 76u);

  // Loss while idle: the timeout runs from the loss instant.
  onoc::TokenRing idle(4, 1);
  idle.lose_token(/*t=*/100, /*regen=*/32);
  EXPECT_EQ(idle.free_at(), 132u);
  EXPECT_EQ(idle.acquire(/*s=*/0, /*t=*/100, /*hold=*/1), 132u);
}

TEST(TokenRingFaults, LoseTokenEnforcesTimeOrder) {
  onoc::TokenRing ring(4, 1);
  (void)ring.acquire(1, 50, 1);
  EXPECT_THROW(ring.lose_token(10, 64), std::logic_error);
}

// --- Loss-budget BER erosion ----------------------------------------------

TEST(LossBudgetFaults, BitErrorRateErosion) {
  const onoc::LossBudgetInputs in;  // shipped device defaults
  // Fault-free link is modeled error-free.
  EXPECT_EQ(onoc::faulted_bit_error_rate(in, 0.0, 0.0), 0.0);
  EXPECT_EQ(onoc::faulted_bit_error_rate(in, -1.0, -1.0), 0.0);

  // Monotone in both knobs, never above 0.5 (random guessing).
  double prev = 0.0;
  for (const double drift : {1.0, 5.0, 10.0, 25.0, 100.0, 1000.0}) {
    const double ber = onoc::faulted_bit_error_rate(in, drift, 0.0);
    EXPECT_GE(ber, prev) << "drift=" << drift;
    EXPECT_LE(ber, 0.5) << "drift=" << drift;
    prev = ber;
  }
  EXPECT_GT(prev, 1e-3);  // deep in the cliff the link is effectively broken
  EXPECT_GT(onoc::faulted_bit_error_rate(in, 10.0, 3.0),
            onoc::faulted_bit_error_rate(in, 10.0, 0.0));
  // Small erosion within the design margin stays near the calibrated 1e-12.
  const double mild = onoc::faulted_bit_error_rate(in, 0.5, 0.0);
  EXPECT_GT(mild, 0.0);
  EXPECT_LT(mild, 1e-9);
}

// --- Network-level: lossless under faults ---------------------------------

noc::Message make_msg(MsgId id, NodeId src, NodeId dst, std::uint32_t bytes) {
  noc::Message m;
  m.id = id;
  m.src = src;
  m.dst = dst;
  m.size_bytes = bytes;
  m.cls = noc::MsgClass::kData;
  return m;
}

/// Injects all-pairs traffic, runs to quiescence, and returns the finish
/// time. Asserts the lossless contract: every injected message delivered.
template <typename Net>
Cycle run_all_pairs(Simulator& sim, Net& net) {
  int delivered = 0;
  net.set_deliver_callback([&](const noc::Message&) { ++delivered; });
  MsgId id = 1;
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s != d) net.inject(make_msg(id++, s, d, 64));
    }
  }
  sim.run();
  EXPECT_EQ(delivered, 16 * 15);
  EXPECT_EQ(net.injected_count(), net.delivered_count());
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.fault_model() == nullptr ? 0u
                                         : net.fault_model()->open_retries(),
            0u);
  return sim.now();
}

TEST(FaultedNetwork, EnocStaysLosslessUnderHeavyFaults) {
  // Heavy fault pressure on all-pairs traffic: every message must still
  // arrive (retransmitted, or surfaced after the retry budget runs out) —
  // the replay contract is a lossless fabric, faults or not.
  const auto topo = noc::Topology::mesh(4, 4);
  FaultSpec fs;
  fs.seed = 3;
  fs.enoc_flit_corrupt_rate = 0.02;
  fs.enoc_flit_drop_rate = 0.01;
  fs.enoc_link_stuck_rate = 0.002;

  Simulator sim;
  enoc::EnocNetwork net(sim, "net", topo, enoc::EnocParams{});
  net.install_fault_model(fs);
  const Cycle faulted_finish = run_all_pairs(sim, net);

  // Faults actually fired and the recovery protocol ran to completion.
  StatRegistry& st = sim.stats();
  EXPECT_GT(st.counter_value("net.fault.flit_corrupt") +
                st.counter_value("net.fault.flit_drop"),
            0u);
  EXPECT_GT(st.counter_value("net.fault.retransmissions"), 0u);
  EXPECT_GT(st.counter_value("net.fault.messages_recovered"), 0u);
  EXPECT_GT(st.accumulator("net.fault.recovery_penalty_cycles").count(), 0u);

  // Recovery costs cycles: the same traffic finishes later than fault-free.
  Simulator clean_sim;
  enoc::EnocNetwork clean(clean_sim, "net", topo, enoc::EnocParams{});
  EXPECT_GT(faulted_finish, run_all_pairs(clean_sim, clean));
}

TEST(FaultedNetwork, OnocTokenLossCompletesAndSlowsArbitration) {
  const auto topo = noc::Topology::mesh(4, 4);
  const onoc::OnocParams params;
  FaultSpec fs;
  fs.seed = 5;
  fs.onoc_token_loss_rate = 0.05;

  Simulator sim;
  onoc::OnocNetwork net(sim, "net", topo, params,
                        onoc::Arbitration::kTokenRing);
  net.install_fault_model(fs);
  const Cycle faulted_finish = run_all_pairs(sim, net);
  EXPECT_GT(sim.stats().counter_value("net.fault.token_loss"), 0u);

  Simulator clean_sim;
  onoc::OnocNetwork clean(clean_sim, "net", topo, params,
                          onoc::Arbitration::kTokenRing);
  EXPECT_GT(faulted_finish, run_all_pairs(clean_sim, clean));
}

TEST(FaultedNetwork, OnocReservationLossRetriesAreBounded) {
  const auto topo = noc::Topology::mesh(4, 4);
  const onoc::OnocParams params;
  FaultSpec fs;
  fs.seed = 7;
  fs.onoc_reservation_loss_rate = 0.2;  // heavy: most paths retry at least once
  fs.max_retries = 2;

  Simulator sim;
  onoc::OnocNetwork net(sim, "net", topo, params,
                        onoc::Arbitration::kPathSetup);
  net.install_fault_model(fs);
  (void)run_all_pairs(sim, net);  // completes: grant retries are bounded
  EXPECT_GT(sim.stats().counter_value("net.fault.reservation_loss"), 0u);
}

// Every setup and grant on the control mesh belongs to a data message that
// has not been delivered yet, re-issued grants included. So whenever every
// injected data message has arrived, the control mesh is idle too: at each
// delivery that drains the data plane, and after each drained run.
TEST(FaultedNetwork, OnocSetupControlMeshDrainsWithTheDataPlane) {
  const auto topo = noc::Topology::mesh(4, 4);
  const onoc::OnocParams params;
  FaultSpec fs;
  fs.seed = 11;
  fs.onoc_reservation_loss_rate = 0.3;
  fs.max_retries = 3;

  Simulator sim;
  onoc::OnocNetwork net(sim, "net", topo, params,
                        onoc::Arbitration::kPathSetup);
  net.install_fault_model(fs);
  int drained_deliveries = 0;
  net.set_deliver_callback([&](const noc::Message&) {
    if (net.injected_count() != net.delivered_count()) return;
    ++drained_deliveries;
    EXPECT_TRUE(net.control_network()->idle()) << "at cycle " << sim.now();
  });
  MsgId id = 1;
  for (int wave = 0; wave < 3; ++wave) {
    for (NodeId s = 0; s < 16; ++s) {
      net.inject(make_msg(id++, s, static_cast<NodeId>((s + 5 + wave) % 16),
                          64));
    }
    sim.run();
    EXPECT_TRUE(net.idle());
    EXPECT_TRUE(net.control_network()->idle());
  }
  EXPECT_EQ(drained_deliveries, 3);
  EXPECT_GT(sim.stats().counter_value("net.fault.reservation_loss"), 0u);
}

}  // namespace
}  // namespace sctm::fault
