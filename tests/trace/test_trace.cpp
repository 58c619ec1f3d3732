#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytic/trace_profile.hpp"
#include "core/driver.hpp"
#include "fullsys/cmp_system.hpp"
#include "support/trace_builder.hpp"
#include "trace/trace_io.hpp"

namespace sctm::trace {
namespace {

Trace capture_small(const char* app_name = "fft") {
  fullsys::AppParams app;
  app.name = app_name;
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  fullsys::FullSysParams sys;
  sys.l1_sets = 8;
  sys.l1_ways = 2;
  sys.l2_sets = 32;
  sys.l2_ways = 4;
  core::NetSpec net;
  net.kind = core::NetKind::kEnoc;
  return core::run_execution(app, net, sys).trace;
}

TEST(TraceCaptureTest, ProducesConsistentTrace) {
  const Trace t = capture_small();
  EXPECT_GT(t.records.size(), 100u);
  EXPECT_EQ(t.nodes, 16);
  EXPECT_EQ(t.app, "fft");
  EXPECT_GT(t.capture_runtime, 0u);
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_NE(t.records.arrive[i], kNoCycle);
    EXPECT_GE(t.records.arrive[i], t.records.inject[i]);
  }
}

TEST(TraceCaptureTest, DependenciesValidateAsDag) {
  const Trace t = capture_small();
  const core::ReplayTrace rt(t);  // throws on any inconsistency
  const analytic::TraceProfile p = analytic::profile_trace(rt);
  EXPECT_EQ(rt.size(), t.records.size());
  EXPECT_GT(p.mean_fanin, 0.5);
  EXPECT_GT(p.critical_depth, 4u);
  EXPECT_GE(p.roots, 1u);
  // Most records are causally chained (this is the property SCTM exploits).
  EXPECT_LT(p.roots, t.records.size() / 4);
}

// A send whose cause has not arrived at the sending node has no slack to
// record, so the CMP refuses it: a cause still in flight, and an id no send
// produced. Nor does it hand over its records while a message is in flight.
TEST(TraceCaptureTest, RejectsSendWhoseCauseHasNotArrived) {
  Simulator sim;
  const auto topo = noc::Topology::mesh(2, 2);
  noc::IdealNetwork net(sim, "net", topo, {});
  fullsys::CmpSystem cmp(sim, "cmp", net, topo, fullsys::FullSysParams{},
                         std::vector<std::vector<fullsys::Op>>(4));
  const MsgId in_flight = cmp.send(fullsys::ProtoMsg::kGetS, 0, 1, 0, {});
  for (const MsgId cause : {in_flight, in_flight + 7}) {
    try {
      cmp.send(fullsys::ProtoMsg::kData, 1, 0, 0, {cause});
      ADD_FAILURE() << "accepted a send caused by message " << cause;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("never arrived"),
                std::string::npos)
          << e.what();
    }
  }
  try {
    cmp.take_records();
    ADD_FAILURE() << "handed over records with message 1 in flight";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("message 1 never arrived"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, BinaryRoundTripIsExact) {
  const Trace t = capture_small();
  std::stringstream buf;
  write_binary(t, buf);
  const Trace back = read_binary(buf);
  EXPECT_EQ(t, back);
}

TEST(TraceIo, FileRoundTrip) {
  const Trace t = capture_small("jacobi");
  const std::string path = "/tmp/sctm_trace_test.bin";
  write_binary_file(t, path);
  const Trace back = read_binary_file(path);
  EXPECT_EQ(t, back);
  std::remove(path.c_str());
}

using fixtures::golden_trace;

TEST(TraceIo, GoldenByteLayoutIsStable) {
  // The exact on-disk bytes for a tiny trace, pinned by hand from the v1
  // layout comment in tracestore/format.hpp. Guards the buffered serializer (and any future
  // rewrite) against silent format drift: traces written by old builds must
  // stay readable bit-for-bit.
  static const unsigned char kExpected[] = {
      // magic
      'S', 'C', 'T', 'M', 'T', 'R', 'C', '1',
      // app: u32 len + bytes
      2, 0, 0, 0, 'a', 'b',
      // capture_network
      1, 0, 0, 0, 'm',
      // i32 nodes, u64 runtime, u64 seed, u64 record count
      2, 0, 0, 0,
      100, 0, 0, 0, 0, 0, 0, 0,
      7, 0, 0, 0, 0, 0, 0, 0,
      2, 0, 0, 0, 0, 0, 0, 0,
      // record 0: u64 id, i32 src, i32 dst, u32 size, u8 cls, u8 proto
      7, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0,
      1, 0, 0, 0,
      64, 0, 0, 0,
      2,
      9,
      // u64 inject, u64 arrive, u16 dep count
      10, 0, 0, 0, 0, 0, 0, 0,
      20, 0, 0, 0, 0, 0, 0, 0,
      0, 0,
      // record 1: u64 id, i32 src, i32 dst, u32 size, u8 cls, u8 proto
      8, 0, 0, 0, 0, 0, 0, 0,
      1, 0, 0, 0,
      0, 0, 0, 0,
      8, 0, 0, 0,
      1,
      3,
      // u64 inject, u64 arrive, u16 dep count, dep (u64 parent, u64 slack)
      25, 0, 0, 0, 0, 0, 0, 0,
      31, 0, 0, 0, 0, 0, 0, 0,
      1, 0,
      7, 0, 0, 0, 0, 0, 0, 0,
      5, 0, 0, 0, 0, 0, 0, 0,
  };

  std::stringstream buf;
  write_binary(golden_trace(), buf);
  const std::string bytes = buf.str();
  ASSERT_EQ(bytes.size(), sizeof kExpected);
  for (std::size_t i = 0; i < sizeof kExpected; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(bytes[i]), kExpected[i])
        << "byte " << i << " diverged from the golden layout";
  }

  // And the pinned bytes parse back to the identical trace.
  std::stringstream in(std::string(
      reinterpret_cast<const char*>(kExpected), sizeof kExpected));
  EXPECT_EQ(read_binary(in), golden_trace());
}

/// `what` throws std::invalid_argument whose message contains `part`.
template <typename Fn>
void expect_rejected_at(Fn&& what, const std::string& part) {
  try {
    what();
    FAIL() << "accepted; expected a rejection naming " << part;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
        << e.what();
  }
}

// The layout test's bytes before the trace contract was checked at read:
// its one record (id 7) names parent id 3, which is not in the trace.
// Every v1 reader rejects them, naming the record and the parent.
TEST(TraceIo, ReadersRejectTheOldGoldenTrace) {
  static const unsigned char kOldGolden[] = {
      'S', 'C', 'T', 'M', 'T', 'R', 'C', '1', 2, 0, 0, 0, 'a', 'b', 1, 0,
      0, 0, 'm', 2, 0, 0, 0, 100, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0,
      0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      1, 0, 0, 0, 64, 0, 0, 0, 2, 9, 10, 0, 0, 0, 0, 0, 0, 0, 20, 0, 0,
      0, 0, 0, 0, 0, 1, 0, 3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0,
      0,
  };
  const std::string bytes(reinterpret_cast<const char*>(kOldGolden),
                          sizeof kOldGolden);
  const std::string rejection = "record 0 (id 7): unknown parent id 3";
  expect_rejected_at(
      [&] {
        std::stringstream in(bytes);
        read_binary(in);
      },
      rejection);
  const std::string path = "/tmp/sctm_old_golden.trc";
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  expect_rejected_at([&] { read_binary_file(path); }, rejection);
  expect_rejected_at([&] { core::load_replay_trace(path); }, rejection);
  std::remove(path.c_str());
}

// v1 stores a record's dependency count as a u16. A record with one more
// dependency than that can say — a barrier release on a 65,536-core
// capture — fails the write, naming the record, before any byte is
// written; v2 stores the count as a varint and keeps every dependency.
TEST(TraceIo, V1WriterRejectsADependencyCountPastItsU16) {
  std::vector<fixtures::Rec> recs;
  std::vector<MsgId> all;
  for (MsgId id = 1; id <= 65536; ++id) {
    recs.push_back({id, 0, 1, id, id + 1});
    all.push_back(id);
  }
  recs.push_back({65537, 1, 0, 65537 + 1, 65537 + 2, all});
  const Trace t = fixtures::make_trace(2, recs);
  ASSERT_EQ(t.records.dep_count(65536), 65536u);

  std::stringstream out;
  try {
    write_binary(t, out);
    ADD_FAILURE() << "wrote a record with 65,536 dependencies as v1";
  } catch (const std::length_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record 65536 (id 65537)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("65535"), std::string::npos) << what;
  }
  EXPECT_TRUE(out.str().empty());
  const std::string path = "/tmp/sctm_v1_dep_count.trc";
  std::remove(path.c_str());
  EXPECT_THROW(write_binary_file(t, path), std::length_error);
  EXPECT_FALSE(std::filesystem::exists(path));

  write_file(t, path, TraceFormat::kV2);
  EXPECT_EQ(read_binary_file(path), t);
  std::remove(path.c_str());
}

TEST(TraceIo, BadMagicRejected) {
  std::stringstream buf;
  buf << "NOTATRACE-------";
  EXPECT_THROW(read_binary(buf), std::runtime_error);

  // A file with neither magic fails naming its path.
  const std::string path = "/tmp/sctm_bad_magic.trc";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTATRACE-------";
  }
  const auto expect_path_named = [&](auto&& read) {
    try {
      read();
      ADD_FAILURE() << "read a file with neither magic";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path + " starts with neither"),
                std::string::npos)
          << e.what();
    }
  };
  expect_path_named([&] { (void)read_binary_file(path); });
  expect_path_named([&] { (void)core::load_replay_trace(path); });
  std::remove(path.c_str());
}

TEST(TraceIo, TruncatedInputRejected) {
  const Trace t = capture_small();
  std::stringstream buf;
  write_binary(t, buf);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_binary(cut), std::runtime_error);
}

// Serialized bytes of the golden trace (see GoldenByteLayoutIsStable), for
// corruption tests that patch specific fields of its first record.
std::string golden_v1_bytes() {
  std::stringstream buf;
  write_binary(golden_trace(), buf);
  return buf.str();
}

TEST(TraceIoStrictness, EveryPossibleTruncationRejected) {
  // A v1 file cut after ANY byte — i.e. truncation at every field boundary
  // and inside every field — must throw, never yield a partial Trace.
  const std::string full = golden_v1_bytes();
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    std::stringstream cut(full.substr(0, keep));
    EXPECT_THROW(read_binary(cut), std::runtime_error)
        << "accepted a " << keep << "-byte prefix of a "
        << full.size() << "-byte file";
  }
}

TEST(TraceIoStrictness, TrailingGarbageRejected) {
  std::stringstream buf(golden_v1_bytes() + std::string("\x01", 1));
  EXPECT_THROW(read_binary(buf), std::runtime_error);
}

TEST(TraceIoStrictness, AbsurdRecordCountRejectedBeforeAllocating) {
  // Patch the u64 record count (offset 39: magic 8 + app 6 + net 5 + nodes 4
  // + runtime 8 + seed 8) to a value no remaining bytes could ever hold.
  std::string bytes = golden_v1_bytes();
  for (int i = 0; i < 8; ++i) bytes[39 + i] = static_cast<char>(0xFF);
  std::stringstream in(bytes);
  EXPECT_THROW(read_binary(in), std::runtime_error);
}

TEST(TraceIoStrictness, AbsurdStringLengthRejected) {
  std::string bytes = golden_v1_bytes();
  for (int i = 0; i < 4; ++i) bytes[8 + i] = static_cast<char>(0xFF);
  std::stringstream in(bytes);
  EXPECT_THROW(read_binary(in), std::runtime_error);
}

TEST(TraceIoStrictness, InvalidMessageClassRejected) {
  // The record's cls byte sits at offset 67 (47-byte header + id/src/dst/
  // size = 20 bytes into the record).
  std::string bytes = golden_v1_bytes();
  bytes[67] = 7;  // >= kMsgClassCount
  std::stringstream in(bytes);
  EXPECT_THROW(read_binary(in), std::runtime_error);
}

TEST(TraceIoStrictness, AbsurdDependencyCountRejected) {
  // u16 dep count of record 0 at offset 85 (record header 22 + inject 8 +
  // arrive 8): more than the bytes left, and 2, which fits in the bytes
  // left but not beside record 1.
  for (const std::uint16_t deps : {0xFFFF, 2}) {
    std::string bytes = golden_v1_bytes();
    std::memcpy(bytes.data() + 85, &deps, sizeof deps);
    std::stringstream in(bytes);
    EXPECT_THROW(read_binary(in), std::runtime_error) << deps;
  }
}

TEST(TraceIoStrictness, ErrorsNameTheByteOffset) {
  const std::string full = golden_v1_bytes();
  std::stringstream cut(full.substr(0, full.size() - 3));
  try {
    read_binary(cut);
    FAIL() << "truncated input accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos)
        << "error message should carry the byte offset: " << e.what();
  }
}

TEST(TraceIo, TextDumpMentionsEveryRecord) {
  Trace t = fixtures::make_trace(2, {{7, 0, 1, 10, 20, {}, 64}});
  t.app = "demo";
  const auto text = to_text(t);
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("0->1"), std::string::npos);
}

TEST(TraceIo, TextDumpPrintsNoCycleSymbolically) {
  // An unset timestamp must never leak as the raw u64 sentinel: record 1
  // is in flight / never delivered.
  Trace t = fixtures::make_trace(2, {{1, 0, 1, 10, kNoCycle}});
  t.app = "demo";
  const auto text = to_text(t);
  EXPECT_NE(text.find("t=10..none"), std::string::npos) << text;
  EXPECT_EQ(text.find(std::to_string(kNoCycle)), std::string::npos) << text;
}

// The trace contract is proved where a trace enters: core::ReplayTrace's
// constructor for an in-memory trace, and the one ingest behind every file
// reader, which also resolves each stored parent id and checks each stored
// slack. What the in-memory form cannot hold — a parent id that is no
// record's, a stored slack — is written as v1 and v2 bytes below the Trace.

using fixtures::make_trace;

/// Record 1 (id 2) depends on record 0 (id 1) with slack 2.
Trace two_record_chain() {
  return make_trace(2, {{1, 0, 1, 0, 5}, {2, 1, 0, 7, 15, {1}}});
}

/// Reads `f` back from its v1 and from its v2 bytes, in 1-record chunks.
template <typename Check>
void for_each_format(const fixtures::FileTrace& f, Check&& check) {
  for (const std::string& bytes :
       {fixtures::v1_bytes(f), fixtures::v2_bytes(f, 1)}) {
    SCOPED_TRACE(bytes.substr(0, 8));
    check([bytes] {
      std::stringstream in(bytes);
      return read_binary(in);
    });
  }
}

TEST(DependencyGraphTest, RejectsUnknownParent) {
  fixtures::FileTrace f = fixtures::file_form(make_trace(2, {{1, 0, 1, 0, 5}}));
  f.records[0].deps.push_back({999, 0});
  f.records[0].fields.dep_count = 1;
  for_each_format(f, [](auto read) {
    expect_rejected_at(read, "record 0 (id 1): unknown parent id 999");
  });
}

TEST(DependencyGraphTest, RejectsForwardDependency) {
  Trace t = make_trace(2, {{1, 0, 1, 15, 20, {2}}, {2, 1, 0, 7, 15, {1}}});
  expect_rejected_at([&] { core::ReplayTrace{t}; },
                     "record 0 (id 1): parent id 2 does not precede");
  for_each_format(fixtures::file_form(t), [](auto read) {
    expect_rejected_at(read, "record 0 (id 1): parent id 2 does not precede");
  });
}

TEST(DependencyGraphTest, RejectsInconsistentSlack) {
  fixtures::FileTrace f = fixtures::file_form(two_record_chain());
  f.records[1].deps[0].slack = 3;  // 5 + 3 != 7
  for_each_format(f, [](auto read) {
    expect_rejected_at(read, "record 1 (id 2): parent id 1 arrival + slack");
  });
}

// The contract covers time, compared without wrap-around. The slack
// identity wraps, so a parent that arrives after its child injects passes it
// with a slack near 2^64, and replay of such a trace once ran to a runtime
// near 2^64; so did a record that arrives before it injects, as a latency
// near 2^64. Each is rejected in memory and from v1 and v2 bytes, naming the
// record, and the parent where there is one.
TEST(DependencyGraphTest, RejectsParentArrivingAfterItsChildInjects) {
  // Record 1 (id 2) injects at cycle 10; its parent, id 1, arrives at 100.
  const Trace t = make_trace(2, {{1, 0, 1, 0, 100}, {2, 1, 0, 10, 20, {1}}});
  const std::string rejection =
      "record 1 (id 2): parent id 1 arrives at cycle 100, after the "
      "injection at cycle 10";
  expect_rejected_at([&] { core::ReplayTrace{t}; }, rejection);
  for_each_format(fixtures::file_form(t), [&](auto read) {
    expect_rejected_at(read, rejection);
  });
}

TEST(DependencyGraphTest, RejectsArrivalBeforeInjection) {
  const Trace t = make_trace(2, {{1, 0, 1, 50, 10}, {2, 1, 0, 60, 70}});
  const std::string rejection =
      "record 0 (id 1): arrives at cycle 10, before its injection at cycle 50";
  expect_rejected_at([&] { core::ReplayTrace{t}; }, rejection);
  for_each_format(fixtures::file_form(t), [&](auto read) {
    expect_rejected_at(read, rejection);
  });
}

// A time violation is reported only when the trace breaks no other rule,
// so every earlier rejection keeps its message: here a later record's
// dependency violation wins over record 1's time violation.
TEST(DependencyGraphTest, TimeViolationYieldsToDependencyViolations) {
  Trace t = make_trace(
      2, {{1, 0, 1, 0, 100}, {2, 1, 0, 10, 20, {1}}, {3, 0, 1, 30, 40}});
  fixtures::FileTrace f = fixtures::file_form(t);
  f.records[2].deps.push_back({999, 0});
  f.records[2].fields.dep_count = 1;
  for_each_format(f, [](auto read) {
    expect_rejected_at(read, "record 2 (id 3): unknown parent id 999");
  });
  fixtures::replace_parents(t, 2, {2});
  expect_rejected_at([&] { core::ReplayTrace{t}; },
                     "record 2 (id 3): parent id 3 does not precede");
}

// A causal chain stored newest-first: every parent lies *after* its
// dependent in the record order replay walks, so a profile or replay built
// over it would see three roots instead of one chain.
TEST(DependencyGraphTest, RejectsRecordsOutOfIdOrder) {
  const Trace t = make_trace(2, {{3, 0, 1, 14, 19, {2}},
                                 {2, 1, 0, 7, 12, {1}},
                                 {1, 0, 1, 0, 5}});
  expect_rejected_at([&] { core::ReplayTrace{t}; }, "record 1 (id 2)");
}

TEST(DependencyGraphTest, RejectsDuplicateId) {
  const Trace t = make_trace(2, {{1, 0, 1, 0, 5}, {1, 1, 0, 7, 15}});
  expect_rejected_at([&] { core::ReplayTrace{t}; }, "record 1 (id 1)");
}

TEST(DependencyGraphTest, ChildrenAndRoots) {
  const core::ReplayTrace rt(two_record_chain());
  ASSERT_EQ(rt.size(), 2u);
  EXPECT_EQ(rt.dep_count(0), 0u);
  ASSERT_EQ(rt.dep_count(1), 1u);
  EXPECT_EQ(rt.dep_parent_index(1, 0), 0u);
  EXPECT_EQ(rt.slack(1, 0), 2u);
  ASSERT_EQ(rt.edge_end(0) - rt.edge_begin(0), 1u);
  EXPECT_EQ(rt.child(rt.edge_begin(0)), 1u);
  EXPECT_EQ(rt.edge_end(1), rt.edge_begin(1));

  const analytic::TraceProfile p = analytic::profile_trace(rt);
  EXPECT_EQ(p.roots, 1u);
  EXPECT_EQ(p.critical_depth, 2u);
  EXPECT_DOUBLE_EQ(p.mean_fanin, 0.5);
}

// Ids with a gap (a trace not straight from a capture): a stored
// parent's id offset from the first id no longer gives its index (id 12
// sits at index 1, not 2), so resolution must search, with the same
// rejections.
TEST(DependencyGraphTest, ResolvesParentsAcrossIdGaps) {
  const Trace t = make_trace(2, {{10, 0, 1, 0, 5},
                                 {12, 1, 0, 7, 12, {10}},
                                 {13, 0, 1, 14, 19, {12, 10}}});
  const fixtures::FileTrace f = fixtures::file_form(t);
  for_each_format(f, [&](auto read) {
    const Trace back = read();
    EXPECT_EQ(back, t);
    const core::ReplayTrace rt(back);
    EXPECT_EQ(rt.dep_parent_index(1, 0), 0u);
    EXPECT_EQ(rt.dep_parent_index(2, 0), 1u);
    EXPECT_EQ(rt.dep_parent_index(2, 1), 0u);
    ASSERT_EQ(rt.edge_end(0) - rt.edge_begin(0), 2u);
    EXPECT_EQ(rt.child(rt.edge_begin(0)), 1u);
    EXPECT_EQ(rt.child(rt.edge_begin(0) + 1), 2u);
  });

  fixtures::FileTrace bad = f;
  bad.records[1].deps[0].parent = 11;  // inside the id range, not an id
  for_each_format(bad, [](auto read) {
    expect_rejected_at(read, "record 1 (id 12): unknown parent id 11");
  });
  bad = f;
  bad.records[1].deps[0] = {13, 0};  // a later record
  for_each_format(bad, [](auto read) {
    expect_rejected_at(read, "record 1 (id 12): parent id 13 does not");
  });
}

}  // namespace
}  // namespace sctm::trace
