#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <tuple>

#include "core/driver.hpp"
#include "support/trace_builder.hpp"
#include "trace/trace_io.hpp"
#include "tracestore/trace_store.hpp"

namespace sctm::tracestore {
namespace {

// ---------------------------------------------------------------------------
// Primitives

TEST(Format, ZigzagKnownValuesAndRoundTrip) {
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
  EXPECT_EQ(zigzag(-2), 3u);
  const std::int64_t cases[] = {0,  1,  -1, 63, -64, 1 << 20, -(1 << 20),
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (const auto v : cases) {
    EXPECT_EQ(unzigzag(zigzag(v)), v) << v;
  }
}

TEST(Format, WrapDeltaRoundTripsAnyU64Pair) {
  const std::uint64_t cases[] = {0, 1, 42, kNoCycle, kNoCycle - 1,
                                 0x8000000000000000ull};
  for (const auto a : cases) {
    for (const auto b : cases) {
      // decode side: prev + delta (wrapping) must reconstruct `a` exactly.
      const std::uint64_t back =
          b + static_cast<std::uint64_t>(unzigzag(zigzag(wrap_delta(a, b))));
      EXPECT_EQ(back, a) << a << " vs " << b;
    }
  }
}

TEST(Format, VarintEncodesMinimally) {
  std::vector<char> buf;
  put_varint(buf, 0);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
  buf.clear();
  put_varint(buf, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(buf.size(), 10u);
}

TEST(Format, Crc32MatchesKnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  Crc32 inc;
  inc.update("12345", 5);
  inc.update("6789", 4);
  EXPECT_EQ(inc.value(), 0xCBF43926u);
}

TEST(Format, Fnv1a64MatchesKnownVectors) {
  EXPECT_EQ(Fnv1a64{}.value(), 0xcbf29ce484222325ull);
  Fnv1a64 h;
  h.update("a", 1);
  EXPECT_EQ(h.value(), 0xaf63dc4c8601ec8cull);
}

TEST(Format, HashHexRoundTrip) {
  EXPECT_EQ(hash_hex(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
  EXPECT_EQ(hash_hex(0x1ull), "0000000000000001");
  std::uint64_t v = 0;
  ASSERT_TRUE(parse_hash_hex("af63dc4c8601ec8c", &v));
  EXPECT_EQ(v, 0xaf63dc4c8601ec8cull);
  EXPECT_FALSE(parse_hash_hex("", &v));
  EXPECT_FALSE(parse_hash_hex("xyz", &v));
  EXPECT_FALSE(parse_hash_hex("0123456789abcdef0", &v));  // 17 digits
}

// ---------------------------------------------------------------------------
// Golden layout

using fixtures::golden_trace;

TEST(TraceStoreV2, GoldenByteLayoutIsStable) {
  // The exact container bytes for the same two-record trace the v1 golden
  // test pins, hand-checked against the layout comment in format.hpp.
  // Guards the writer (and any rewrite) against silent format drift: v2
  // files written by old builds must stay readable bit-for-bit.
  static const unsigned char kExpected[] = {
      // magic, u32 flags, u32 chunk_target (4096)
      0x53, 0x43, 0x54, 0x4d, 0x54, 0x52, 0x43, 0x32, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x10, 0x00, 0x00,
      // app "ab", net "m", i32 nodes, u64 runtime, u64 seed
      0x02, 0x00, 0x00, 0x00, 0x61, 0x62, 0x01, 0x00, 0x00, 0x00, 0x6d, 0x02,
      0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // u32 header_crc
      0x2a, 0xb6, 0xe1, 0xc7,
      // chunk 0 header: payload crc, payload_len=20, record_count=2,
      // first_record=0, min_cycle=10, max_cycle=31
      0x98, 0xf2, 0xca, 0xcd, 0x14, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x1f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // payload, record 0: vz(7-0)=14, vz(src 0), vz(dst 1)=2, v(64),
      // cls 2, proto 9, vz(inject 10)=20, vz(arrive-inject 10)=20, v(deps 0)
      0x0e, 0x00, 0x02, 0x40, 0x02, 0x09, 0x14, 0x14, 0x00,
      // record 1: vz(8-7)=2, vz(src 1)=2, vz(dst 0), v(8), cls 1, proto 3,
      // vz(inject 25-10)=30, vz(arrive-inject 6)=12, v(deps 1),
      // vz(id-parent 1)=2, v(slack 5)
      0x02, 0x02, 0x00, 0x08, 0x01, 0x03, 0x1e, 0x0c, 0x01, 0x02, 0x05,
      // index: u32 index_crc, u32 index_len=40, then one 40-byte entry
      // (file_offset=0x33, payload_len, record_count, first, min, max)
      0x28, 0x98, 0x98, 0x3b, 0x28, 0x00, 0x00, 0x00, 0x33, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x1f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // footer: index_offset=0x6b, chunk_count=1, record_count=2,
      // content_hash, footer_crc, trailer "SCTMEND2"
      0x6b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xac, 0x2d, 0x96, 0x0a, 0xa6, 0xd2, 0x1d, 0x35, 0xac, 0x07, 0x86, 0xe7,
      0x53, 0x43, 0x54, 0x4d, 0x45, 0x4e, 0x44, 0x32,
  };

  std::ostringstream ss;
  write_v2(golden_trace(), ss);
  const std::string bytes = ss.str();
  ASSERT_EQ(bytes.size(), sizeof kExpected);
  for (std::size_t i = 0; i < sizeof kExpected; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(bytes[i]), kExpected[i])
        << "byte " << i << " diverged from the golden layout";
  }

  // And the pinned bytes parse back to the identical trace.
  TraceReader reader(memory_source(
      reinterpret_cast<const char*>(kExpected), sizeof kExpected));
  EXPECT_EQ(reader.read_all(), golden_trace());
}

// The layout test's bytes before the trace contract was checked at read:
// its one record (id 7) names parent id 3, which is not in the trace. The
// container is intact, so only the contract can reject it, and every v2
// reader does, naming the record and the parent.
TEST(TraceStoreV2, ReadersRejectTheOldGoldenTrace) {
  static const unsigned char kOldGolden[] = {
      0x53, 0x43, 0x54, 0x4d, 0x54, 0x52, 0x43, 0x32, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x10, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x61, 0x62, 0x01, 0x00,
      0x00, 0x00, 0x6d, 0x02, 0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a,
      0xb6, 0xe1, 0xc7, 0x5a, 0xd5, 0x60, 0x7d, 0x0b, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x0e, 0x00, 0x02, 0x40, 0x02, 0x09, 0x14, 0x14, 0x01,
      0x08, 0x05, 0x71, 0xcb, 0xf4, 0x22, 0x28, 0x00, 0x00, 0x00, 0x33, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x62, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x67, 0xd8, 0xe8, 0x93, 0xc1, 0x37, 0xee, 0x91, 0x11, 0xed,
      0xc6, 0xc7, 0x53, 0x43, 0x54, 0x4d, 0x45, 0x4e, 0x44, 0x32,
  };
  const std::string bytes(reinterpret_cast<const char*>(kOldGolden),
                          sizeof kOldGolden);
  const std::string rejection = "record 0 (id 7): unknown parent id 3";
  const auto expect_rejected = [&](const char* reader, auto&& read) {
    try {
      read();
      ADD_FAILURE() << reader << " accepted the old golden trace";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(rejection), std::string::npos)
          << reader << ": " << e.what();
    }
  };
  const TraceReader reader(memory_source(bytes.data(), bytes.size()));
  expect_rejected("read_all", [&] { (void)reader.read_all(); });
  expect_rejected("from_store",
                  [&] { (void)core::ReplayTrace::from_store(reader); });
  expect_rejected("read_binary", [&] {
    std::stringstream in(bytes);
    (void)trace::read_binary(in);
  });
  const std::string path = "/tmp/sctm_old_golden.trc2";
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  expect_rejected("read_binary_file",
                  [&] { (void)trace::read_binary_file(path); });
  expect_rejected("load_replay_trace",
                  [&] { (void)core::load_replay_trace(path); });
  for (const bool deep : {true, false}) {
    const VerifyReport rep = verify_file(path, deep);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.bad_chunk, -1);
    EXPECT_NE(rep.error.find(rejection), std::string::npos) << rep.error;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Chunk codec: any field value survives a round trip, whatever it means.

/// decode_chunk sink that collects what it receives in the file form.
struct CollectRecords {
  std::vector<fixtures::FileRecord>& out;

  void record(const RecordFields& f) { out.push_back({f, {}}); }
  void dep(MsgId parent, Cycle slack) {
    out.back().deps.push_back({parent, slack});
  }
};

TEST(ChunkCodec, RoundTripsArbitraryFieldValues) {
  std::mt19937_64 rng(12345);
  for (const std::size_t n : {1u, 7u, 64u, 500u}) {
    std::vector<fixtures::FileRecord> in;
    MsgId id = rng() % 1000;
    Cycle inject = rng() % 1000;
    for (std::size_t i = 0; i < n; ++i) {
      fixtures::FileRecord& r = in.emplace_back();
      id += 1 + rng() % 50;
      r.fields.id = (rng() % 32 == 0) ? rng() : id;
      r.fields.src = static_cast<NodeId>(rng());
      r.fields.dst = static_cast<NodeId>(rng() % 64);
      r.fields.size_bytes = static_cast<std::uint32_t>(rng());
      r.fields.cls = static_cast<noc::MsgClass>(rng() % noc::kMsgClassCount);
      r.fields.proto = static_cast<std::uint8_t>(rng() % 256);
      // Mostly monotone timestamps (the case the delta coder targets), with
      // arbitrary u64s and kNoCycle arrivals for the wrapping-delta path.
      inject += rng() % 2000;
      r.fields.inject_time = (rng() % 16 == 0) ? rng() : inject;
      r.fields.arrive_time =
          (rng() % 10 == 0) ? kNoCycle : r.fields.inject_time + rng() % 500;
      // The codec does not interpret dependencies: any parent and slack,
      // later records' and unknown ids included, must survive.
      r.fields.dep_count = rng() % 4;
      for (std::uint64_t d = 0; d < r.fields.dep_count; ++d) {
        r.deps.push_back({rng() % 2 ? id - rng() % 100 : rng(), rng()});
      }
    }
    ChunkEncoder enc;
    enc.reset();
    for (const fixtures::FileRecord& r : in) {
      enc.record(r.fields);
      for (const FileDep& d : r.deps) enc.dep(d.parent, d.slack);
    }
    std::vector<fixtures::FileRecord> out;
    CollectRecords sink{out};
    decode_chunk(enc.bytes().data(), enc.bytes().size(),
                 static_cast<std::uint32_t>(n), sink);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < n; ++i) {
      const RecordFields& a = in[i].fields;
      const RecordFields& b = out[i].fields;
      EXPECT_EQ(std::tie(a.id, a.src, a.dst, a.size_bytes, a.cls, a.proto,
                         a.inject_time, a.arrive_time, a.dep_count),
                std::tie(b.id, b.src, b.dst, b.size_bytes, b.cls, b.proto,
                         b.inject_time, b.arrive_time, b.dep_count))
          << "record " << i << " of " << n;
      EXPECT_EQ(in[i].deps, out[i].deps) << "record " << i << " of " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Round trips

/// A random trace the contract accepts: ids ascend with gaps, and each
/// record names up to three earlier records. Timestamps are mostly
/// monotone, with arbitrary u64 injections and kNoCycle arrivals, so the
/// derived slacks wrap too.
/// A random trace that keeps the contract: ids ascend, no record arrives
/// before it injects, and no parent arrives after its child injects. One
/// record in 16 injects at an arbitrary u64 and one in 10 never arrives;
/// no later record names either as a parent.
trace::Trace random_trace(std::mt19937_64& rng, std::size_t n) {
  trace::Trace t;
  t.app = "rnd";
  t.capture_network = "synthetic";
  t.nodes = 64;
  t.capture_runtime = rng();
  t.seed = rng();
  trace::Records& r = t.records;
  MsgId id = rng() % 1000;
  Cycle inject = rng() % 1000;
  std::vector<std::uint32_t> parents;  // records a later one may name
  for (std::size_t i = 0; i < n; ++i) {
    id += 1 + rng() % 50;
    inject += rng() % 2000;
    const bool arbitrary = rng() % 16 == 0;
    const bool lost = rng() % 10 == 0;
    const Cycle injected = arbitrary ? rng() : inject;
    const Cycle latency = std::min<Cycle>(rng() % 500, kNoCycle - injected);
    r.append(id, static_cast<NodeId>(rng() % 64),
             static_cast<NodeId>(rng() % 64),
             static_cast<std::uint32_t>(rng() % 100000),
             static_cast<noc::MsgClass>(rng() % noc::kMsgClassCount),
             static_cast<std::uint8_t>(rng() % 256), injected,
             lost ? kNoCycle : injected + latency);
    const std::size_t deps = parents.empty() ? 0 : rng() % 4;
    for (std::size_t d = 0; d < deps; ++d) {
      const std::uint32_t p = parents[rng() % parents.size()];
      if (r.arrive[p] <= injected) r.add_parent(p);
    }
    if (!arbitrary && !lost) parents.push_back(static_cast<std::uint32_t>(i));
  }
  return t;
}

// Each writer emits what the fixtures lay out by hand from the file form
// (support/trace_builder.hpp), and what it emits reads back whole.
TEST(TraceStoreV2, RandomizedRoundTripsAcrossChunkSizes) {
  std::mt19937_64 rng(12345);
  for (const std::uint32_t chunk : {1u, 7u, 64u, kDefaultChunkRecords}) {
    const trace::Trace t = random_trace(rng, 200);
    const fixtures::FileTrace f = fixtures::file_form(t);
    std::ostringstream ss;
    write_v2(t, ss, chunk);
    const std::string bytes = ss.str();
    EXPECT_TRUE(bytes == fixtures::v2_bytes(f, chunk)) << "chunk=" << chunk;
    TraceReader reader(memory_source(bytes.data(), bytes.size()));
    EXPECT_EQ(reader.record_count(), t.records.size());
    EXPECT_EQ(reader.stored_content_hash(), content_hash(t));
    if (chunk == 7) {
      EXPECT_EQ(reader.chunk_count(), (200 + 6) / 7);
    }
    EXPECT_EQ(reader.read_all(), t) << "chunk=" << chunk;
    std::stringstream v1;
    write_v1(t, v1);
    EXPECT_TRUE(v1.str() == fixtures::v1_bytes(f)) << "chunk=" << chunk;
    EXPECT_EQ(trace::read_binary(v1), t) << "chunk=" << chunk;
  }
}

TEST(TraceStoreV2, EmptyTraceRoundTrips) {
  trace::Trace t;
  t.app = "empty";
  t.capture_network = "none";
  t.nodes = 4;
  std::ostringstream ss;
  write_v2(t, ss);
  const std::string bytes = ss.str();
  TraceReader reader(memory_source(bytes.data(), bytes.size()));
  EXPECT_EQ(reader.chunk_count(), 0u);
  EXPECT_EQ(reader.read_all(), t);
}

TEST(TraceStoreV2, ReadBinaryDispatchesOnMagic) {
  // The legacy entry points accept v2 transparently.
  const trace::Trace t = golden_trace();
  std::stringstream ss;
  write_v2(t, ss);
  EXPECT_EQ(trace::read_binary(ss), t);

  const std::string path = "/tmp/sctm_tracestore_dispatch.trc2";
  write_file(t, path, TraceFormat::kV2);
  EXPECT_EQ(TraceReader::open_file(path).format(), TraceFormat::kV2);
  EXPECT_EQ(trace::read_binary_file(path), t);
  std::remove(path.c_str());
}

TEST(TraceStoreV2, WriterRejectsAChunkOfZeroRecords) {
  std::ostringstream ss;
  EXPECT_THROW(write_v2(golden_trace(), ss, 0), std::invalid_argument);
  EXPECT_TRUE(ss.str().empty());
}

TEST(TraceStoreV2, ContentHashIsFormatIndependent) {
  const trace::Trace t = golden_trace();
  const std::string v1 = "/tmp/sctm_hash_check.bin";
  const std::string v2 = "/tmp/sctm_hash_check.trc2";
  trace::write_file(t, v1, trace::TraceFormat::kV1);
  trace::write_file(t, v2, trace::TraceFormat::kV2);
  // Loading either file yields the same logical trace, hence the same
  // content address; v2 additionally stores it in the footer.
  EXPECT_EQ(content_hash(trace::read_binary_file(v1)),
            content_hash(trace::read_binary_file(v2)));
  EXPECT_EQ(TraceReader::open_file(v2).stored_content_hash(),
            content_hash(t));
  std::remove(v1.c_str());
  std::remove(v2.c_str());
}

// A device with no room takes a small file into the stream's buffer; the
// write fails only when the file is closed, and that must throw, naming
// the path, in either format.
TEST(TraceStoreFiles, WriteFileReportsAFullDevice) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  for (const TraceFormat format : {TraceFormat::kV1, TraceFormat::kV2}) {
    try {
      write_file(golden_trace(), "/dev/full", format);
      ADD_FAILURE() << "wrote a " << to_string(format) << " trace to "
                    << "/dev/full";
    } catch (const TraceStoreError& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Corruption

TEST(TraceStoreV2, EveryOneByteCorruptionIsDetectedAndAttributed) {
  std::mt19937_64 rng(4242);
  const trace::Trace t = random_trace(rng, 30);
  const std::string path = "/tmp/sctm_corrupt_sweep.trc2";
  write_file(t, path, TraceFormat::kV2, /*chunk_records=*/8);

  std::string clean;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    clean = buf.str();
  }
  const VerifyReport ok = verify_file(path);
  ASSERT_TRUE(ok.ok) << ok.error;
  ASSERT_GE(ok.chunks, 3u);

  // Byte ranges owned by each chunk (header + payload): corruption there
  // must be attributed to exactly that chunk.
  const TraceReader reader = TraceReader::open_file(path);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
    const auto& c = reader.chunk_info(i);
    spans.push_back(
        {c.file_offset, c.file_offset + kChunkHeaderBytes + c.payload_len});
  }

  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::string bad = clean;
    bad[i] = static_cast<char>(bad[i] ^ 0xFF);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    const VerifyReport rep = verify_file(path);
    ASSERT_FALSE(rep.ok) << "corruption at byte " << i << " went undetected";
    std::int64_t expected_chunk = -1;
    for (std::size_t c = 0; c < spans.size(); ++c) {
      if (i >= spans[c].first && i < spans[c].second) {
        expected_chunk = static_cast<std::int64_t>(c);
      }
    }
    EXPECT_EQ(rep.bad_chunk, expected_chunk)
        << "byte " << i << ": " << rep.error;
  }
  std::remove(path.c_str());
}

TEST(TraceStoreV2, TruncationRejected) {
  std::ostringstream ss;
  write_v2(golden_trace(), ss);
  const std::string full = ss.str();
  for (const std::size_t keep : {0ul, 7ul, 20ul, full.size() / 2,
                                 full.size() - 1}) {
    EXPECT_THROW(
        TraceReader reader(memory_source(full.data(), keep)),
        TraceStoreError)
        << "accepted a " << keep << "-byte prefix";
  }
}

// A chunk record count that its payload cannot hold (every record takes at
// least kMinRecordBytes) is rejected when the file is opened, attributed to
// its chunk — even with the forged count written consistently into the
// chunk header, the index and the footer and both checksums re-sealed.
// Readers reserve for the claimed count, so trusting it meant allocating
// for four billion records.
TEST(TraceStoreV2, ChunkRecordCountBeyondItsPayloadIsRejectedAtOpen) {
  std::mt19937_64 rng(480);
  const trace::Trace t = random_trace(rng, 480);
  std::ostringstream ss;
  write_v2(t, ss);
  std::string bytes = ss.str();
  const auto put = [&bytes](std::size_t at, auto v) {
    std::memcpy(bytes.data() + at, &v, sizeof v);
  };
  const auto get_u64 = [&bytes](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return v;
  };
  const std::size_t footer = bytes.size() - kFooterBytes;
  const std::size_t index = get_u64(footer);
  ASSERT_EQ(get_u64(footer + 8), 1u);  // one chunk
  const std::uint64_t chunk_offset = get_u64(index + 8);

  const std::uint32_t forged = 0xFFFFFFF0u;
  put(chunk_offset + 8, forged);              // chunk header record_count
  put(index + 8 + 12, forged);                // index entry record_count
  put(footer + 16, std::uint64_t{forged});    // footer record_count
  put(index, crc32(bytes.data() + index + 8, kIndexEntryBytes));
  put(footer + 32, crc32(bytes.data() + footer, 32));

  try {
    TraceReader reader(memory_source(bytes.data(), bytes.size()));
    ADD_FAILURE() << "opened a chunk claiming " << forged << " records";
  } catch (const TraceStoreError& e) {
    EXPECT_EQ(e.chunk(), 0) << e.what();
  }

  const std::string path = "/tmp/sctm_forged_record_count.trc2";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const VerifyReport rep = verify_file(path);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.bad_chunk, 0) << rep.error;
  EXPECT_THROW((void)core::load_replay_trace(path), TraceStoreError);
  std::remove(path.c_str());
}

// A chunk whose first record claims as dependencies the bytes its second
// record needs, with the payload checksum re-sealed, fails to decode at the
// truncated second record. Its first record yields more dependencies than
// (payload - kMinRecordBytes x records) / kMinDepBytes, so the decode must
// have room for one per kMinDepBytes of the whole payload (run it under
// AddressSanitizer to see a write past that room).
TEST(TraceStoreV2, DependenciesEatingALaterRecordAreRejectedInBounds) {
  std::mt19937_64 rng(2);
  const trace::Trace t = random_trace(rng, 2);
  std::ostringstream ss;
  write_v2(t, ss);
  std::string bytes = ss.str();
  const auto get = [&bytes](std::size_t at, auto v) {
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return v;
  };
  const std::size_t footer = bytes.size() - kFooterBytes;
  const std::size_t index = get(footer, std::uint64_t{0});
  ASSERT_EQ(get(footer + 8, std::uint64_t{0}), 1u);  // one chunk
  const std::size_t chunk_offset = get(index + 8, std::uint64_t{0});
  const std::size_t payload_len = get(index + 16, std::uint32_t{0});
  ASSERT_EQ(get(index + 20, std::uint32_t{0}), 2u);  // of two records
  ASSERT_GE(payload_len, 2 * kMinRecordBytes);
  ASSERT_LT(payload_len, 2 * 128 + kMinRecordBytes);  // a one-byte count

  // Record 0: eight one-byte fields, then a dependency count that spends
  // every byte left on two-byte (0, 0) dependencies.
  const std::size_t deps = (payload_len - kMinRecordBytes) / kMinDepBytes;
  ASSERT_GT(deps, (payload_len - 2 * kMinRecordBytes) / kMinDepBytes);
  char* const payload = bytes.data() + chunk_offset + kChunkHeaderBytes;
  std::memset(payload, 0, payload_len);
  payload[8] = static_cast<char>(deps);
  const std::uint32_t crc = crc32(payload, payload_len);
  std::memcpy(bytes.data() + chunk_offset, &crc, sizeof crc);

  try {
    (void)TraceReader(memory_source(bytes.data(), bytes.size())).read_all();
    ADD_FAILURE() << "decoded a chunk whose second record is truncated";
  } catch (const TraceStoreError& e) {
    EXPECT_EQ(e.chunk(), 0) << e.what();
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Replay loads (the acceptance criterion: replaying from a v2 container is
// bit-identical to replaying the in-memory trace).

trace::Trace captured_trace() {
  fullsys::AppParams app;
  app.name = "fft";
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

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_same_replay_trace(const core::ReplayTrace& a,
                              const core::ReplayTrace& b) {
  EXPECT_TRUE(a.finalized());
  EXPECT_TRUE(b.finalized());
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_EQ(a.app(), b.app());
  EXPECT_EQ(a.capture_network(), b.capture_network());
  EXPECT_EQ(a.nodes(), b.nodes());
  EXPECT_EQ(a.capture_runtime(), b.capture_runtime());
  EXPECT_EQ(a.seed(), b.seed());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::uint32_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.id(i), b.id(i)) << i;
    ASSERT_EQ(a.src(i), b.src(i)) << i;
    ASSERT_EQ(a.dst(i), b.dst(i)) << i;
    ASSERT_EQ(a.size_bytes(i), b.size_bytes(i)) << i;
    ASSERT_EQ(a.cls(i), b.cls(i)) << i;
    ASSERT_EQ(a.proto(i), b.proto(i)) << i;
    ASSERT_EQ(a.inject_time(i), b.inject_time(i)) << i;
    ASSERT_EQ(a.arrive_time(i), b.arrive_time(i)) << i;
    ASSERT_EQ(a.dep_count(i), b.dep_count(i)) << i;
    for (std::uint32_t k = 0; k < a.dep_count(i); ++k) {
      ASSERT_EQ(a.dep_parent_index(i, k), b.dep_parent_index(i, k)) << i;
    }
    ASSERT_EQ(a.edge_begin(i), b.edge_begin(i)) << i;
    ASSERT_EQ(a.edge_end(i), b.edge_end(i)) << i;
  }
  for (std::uint32_t e = 0; e < a.edge_count(); ++e) {
    ASSERT_EQ(a.child(e), b.child(e)) << e;
  }
}

// Every chunking the parallel load can meet: one record per chunk, chunks
// that split records' dependency runs, the default-ish size, one chunk
// larger than the trace, and no chunk at all.
TEST(TraceStoreV2, LoadReplayTraceEqualsInMemoryReplayTrace) {
  const trace::Trace t = captured_trace();
  ASSERT_GT(t.records.size(), 100u);
  const core::ReplayTrace mem(t);
  EXPECT_EQ(mem.content_hash(), content_hash(t));
  const auto chunk_sizes = {
      1u, 7u, 128u, static_cast<std::uint32_t>(t.records.size() + 5)};
  for (const std::uint32_t chunk : chunk_sizes) {
    SCOPED_TRACE("chunk_records=" + std::to_string(chunk));
    const std::string path = "/tmp/sctm_load_equals_memory.trc2";
    write_file(t, path, TraceFormat::kV2, chunk);
    expect_same_replay_trace(core::load_replay_trace(path), mem);
    std::remove(path.c_str());
  }

  trace::Trace empty;
  empty.app = "empty";
  empty.capture_network = "none";
  empty.nodes = 4;
  const std::string path = "/tmp/sctm_load_equals_memory_empty.trc2";
  write_file(empty, path, TraceFormat::kV2);
  const core::ReplayTrace loaded = core::load_replay_trace(path);
  expect_same_replay_trace(loaded, core::ReplayTrace(empty));
  EXPECT_EQ(loaded.content_hash(), content_hash(empty));
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST(TraceStoreV2, ProtoRoundTripsIntoReplayTrace) {
  const trace::Trace t = captured_trace();
  const std::set<std::uint8_t> protos(t.records.proto.begin(),
                                      t.records.proto.end());
  ASSERT_GT(protos.size(), 2u) << "the capture exercises several protocols";

  const std::string path = "/tmp/sctm_proto_round_trip.trc2";
  write_file(t, path, TraceFormat::kV2, /*chunk_records=*/64);
  const core::ReplayTrace mem(t);
  const core::ReplayTrace loaded = core::load_replay_trace(path);
  ASSERT_EQ(mem.size(), t.records.size());
  ASSERT_EQ(loaded.size(), t.records.size());
  for (std::uint32_t i = 0; i < mem.size(); ++i) {
    EXPECT_EQ(mem.proto(i), t.records.proto[i]) << i;
    EXPECT_EQ(loaded.proto(i), t.records.proto[i]) << i;
  }
  std::remove(path.c_str());
}

// A footer whose content hash is forged, with its checksum re-sealed, opens
// cleanly; the load recomputes the hash and fails naming both.
TEST(TraceStoreV2, ForgedFooterHashFailsTheLoad) {
  const trace::Trace t = captured_trace();
  const std::string path = "/tmp/sctm_forged_footer_hash.trc2";
  write_file(t, path, TraceFormat::kV2, /*chunk_records=*/128);
  std::string bytes = read_bytes(path);
  const std::size_t footer = bytes.size() - kFooterBytes;
  const std::uint64_t forged = content_hash(t) ^ 0x5a5a;
  std::memcpy(bytes.data() + footer + 24, &forged, sizeof forged);
  const std::uint32_t crc = crc32(bytes.data() + footer, 32);
  std::memcpy(bytes.data() + footer + 32, &crc, sizeof crc);
  write_bytes(path, bytes);

  ASSERT_EQ(TraceReader::open_file(path).stored_content_hash(), forged);
  try {
    (void)core::load_replay_trace(path);
    ADD_FAILURE() << "loaded a trace whose footer hash is forged";
  } catch (const TraceStoreError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(hash_hex(forged)), std::string::npos) << what;
    EXPECT_NE(what.find(hash_hex(content_hash(t))), std::string::npos)
        << what;
  }
  EXPECT_FALSE(verify_file(path).ok);
  std::remove(path.c_str());
}

// Chunks decode on several threads, yet the load reports the damage that
// comes first in record order, every time.
TEST(TraceStoreV2, LoadReportsTheLowerOfTwoCorruptChunks) {
  const trace::Trace t = captured_trace();
  const std::string path = "/tmp/sctm_two_corrupt_chunks.trc2";
  write_file(t, path, TraceFormat::kV2, /*chunk_records=*/16);
  std::string bytes = read_bytes(path);
  const TraceReader clean(memory_source(bytes.data(), bytes.size()));
  ASSERT_GT(clean.chunk_count(), 9u);
  for (const std::size_t c : {3u, 9u}) {
    const ChunkInfo& info = clean.chunk_info(c);
    bytes[info.file_offset + kChunkHeaderBytes + info.payload_len / 2] ^= 0x40;
  }
  write_bytes(path, bytes);

  for (int rep = 0; rep < 20; ++rep) {
    try {
      (void)core::load_replay_trace(path);
      ADD_FAILURE() << "loaded a trace with two corrupt chunks";
    } catch (const TraceStoreError& e) {
      ASSERT_EQ(e.chunk(), 3) << e.what();
    }
  }
  std::remove(path.c_str());
}

// As in a serial load, which decodes every chunk before it checks the
// trace contract, a damaged chunk is reported ahead of a dependency
// violation in an earlier one.
TEST(TraceStoreV2, LoadReportsADamagedChunkBeforeAnEarlierViolation) {
  const trace::Trace t = captured_trace();
  fixtures::FileTrace f = fixtures::file_form(t);
  const auto victim =
      std::find_if(f.records.begin() + 20, f.records.end(),
                   [](const auto& r) { return !r.deps.empty(); });
  ASSERT_NE(victim, f.records.end());
  victim->deps[0].slack += 7;
  const std::string path = "/tmp/sctm_damage_before_violation.trc2";
  write_bytes(path, fixtures::v2_bytes(f, /*chunk_records=*/16));
  EXPECT_THROW((void)core::load_replay_trace(path), std::invalid_argument);

  std::string bytes = read_bytes(path);
  const TraceReader clean(memory_source(bytes.data(), bytes.size()));
  const std::size_t last = clean.chunk_count() - 1;
  ASSERT_GT(last * 16, static_cast<std::size_t>(victim - f.records.begin()));
  const ChunkInfo& info = clean.chunk_info(last);
  bytes[info.file_offset + kChunkHeaderBytes + info.payload_len / 2] ^= 0x40;
  write_bytes(path, bytes);
  try {
    (void)core::load_replay_trace(path);
    ADD_FAILURE() << "loaded a trace with a damaged chunk";
  } catch (const TraceStoreError& e) {
    EXPECT_EQ(e.chunk(), static_cast<std::int64_t>(last)) << e.what();
  }
  std::remove(path.c_str());
}

TEST(TraceStoreV2, StreamedReplayMatchesInMemoryReplayBitExactly) {
  const trace::Trace t = captured_trace();
  ASSERT_GT(t.records.size(), 100u);

  const std::string path = "/tmp/sctm_streamed_replay.trc2";
  write_file(t, path, TraceFormat::kV2,
             /*chunk_records=*/128);  // force many chunks

  core::NetSpec target;
  target.kind = core::NetKind::kOnocToken;
  const auto mem = core::run_replay(core::ReplayTrace(t), target, {});
  const auto streamed =
      core::run_replay(core::load_replay_trace(path), target, {});
  EXPECT_EQ(streamed.result.inject_time, mem.result.inject_time);
  EXPECT_EQ(streamed.result.arrive_time, mem.result.arrive_time);
  EXPECT_EQ(streamed.result.runtime, mem.result.runtime);
  EXPECT_EQ(streamed.result.events, mem.result.events);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// v1 files: TraceReader scans them into chunks, which the ingest decodes on
// its workers as it does v2's.

/// 5,000 chained records, more than one chunk's 4,096; then 80 barrier
/// releases naming 1,000 arrivals each, whose dependencies pass
/// kV1ChunkBytes; then one record with v1's most dependencies, larger than
/// kV1ChunkBytes on its own.
trace::Trace many_chunk_trace() {
  std::vector<fixtures::Rec> recs;
  for (MsgId id = 1; id <= 5000; ++id) {
    recs.push_back({id, static_cast<NodeId>(id % 16),
                    static_cast<NodeId>((id + 1) % 16), 10 * id, 10 * id + 5,
                    id > 1 ? std::vector<MsgId>{id - 1}
                           : std::vector<MsgId>{}});
  }
  std::vector<MsgId> arrivals(1000);
  std::iota(arrivals.begin(), arrivals.end(), MsgId{4001});
  for (MsgId id = 5001; id <= 5080; ++id) {
    recs.push_back({id, 0, static_cast<NodeId>(id % 16), 60000, 60010,
                    arrivals});
  }
  std::vector<MsgId> most(UINT16_MAX);
  for (std::size_t k = 0; k < most.size(); ++k) most[k] = arrivals[k % 1000];
  recs.push_back({5081, 1, 2, 60020, 60030, most});
  return fixtures::make_trace(16, recs);
}

TEST(TraceStoreV1, ReadsAFileOfManyScannedChunks) {
  const trace::Trace t = many_chunk_trace();
  std::stringstream v1;
  write_v1(t, v1);
  const std::string bytes = v1.str();
  const TraceReader reader(memory_source(bytes.data(), bytes.size()));
  EXPECT_EQ(reader.format(), TraceFormat::kV1);
  EXPECT_EQ(reader.record_count(), t.records.size());
  ASSERT_GT(reader.chunk_count(), 2u);
  for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
    const ChunkInfo& c = reader.chunk_info(i);
    EXPECT_LE(c.record_count, kDefaultChunkRecords) << i;
    EXPECT_TRUE(c.payload_len <= kV1ChunkBytes || c.record_count == 1) << i;
  }
  EXPECT_EQ(reader.chunk_info(0).record_count, kDefaultChunkRecords);
  const ChunkInfo& last = reader.chunk_info(reader.chunk_count() - 1);
  EXPECT_EQ(last.record_count, 1u);
  EXPECT_GT(last.payload_len, kV1ChunkBytes);
  EXPECT_EQ(reader.read_all(), t);
  EXPECT_EQ(trace::read_binary(v1), t);

  const std::string path = "/tmp/sctm_v1_many_chunks.trc";
  write_file(t, path, TraceFormat::kV1);
  EXPECT_EQ(trace::read_binary_file(path), t);
  expect_same_replay_trace(core::load_replay_trace(path), core::ReplayTrace(t));
  std::remove(path.c_str());
}

// Chunks decode on several threads, yet a v1 load reports what a serial
// load meets first: damage anywhere (the scan at open finds it) before a
// contract violation in an earlier chunk, and of two violations the one in
// the lower chunk.
TEST(TraceStoreV1, LoadReportsErrorsInSerialOrderAcrossChunks) {
  std::vector<fixtures::Rec> recs;
  for (MsgId id = 1; id <= 4 * kDefaultChunkRecords; ++id) {
    recs.push_back({id, 0, 1, 10 * id, 10 * id + 5,
                    id > 1 ? std::vector<MsgId>{id - 1}
                           : std::vector<MsgId>{}});
  }
  const fixtures::FileTrace clean =
      fixtures::file_form(fixtures::make_trace(2, recs));
  const std::string path = "/tmp/sctm_v1_serial_order.trc";

  // Record 9,000 is in chunk 2. Its class byte is 20 bytes into it, after
  // the 57-byte header, record 0's 40 bytes and 8,999 records of 56.
  fixtures::FileTrace f = clean;
  f.records[5].deps[0].parent = 999999;
  f.records[9000].fields.cls = static_cast<noc::MsgClass>(7);
  write_bytes(path, fixtures::v1_bytes(f));
  const std::string class_error =
      "invalid message class 7 in record 9000 at byte " +
      std::to_string(57 + 40 + 8999 * 56 + 20);
  try {
    (void)core::load_replay_trace(path);
    ADD_FAILURE() << "loaded a trace with a bad class byte";
  } catch (const TraceStoreError& e) {
    EXPECT_NE(std::string(e.what()).find(class_error), std::string::npos)
        << e.what();
  }

  f = clean;
  f.records[5000].deps[0].parent = 999999;
  f.records[3 * kDefaultChunkRecords + 2].deps[0].parent = 999998;
  write_bytes(path, fixtures::v1_bytes(f));
  const TraceReader reader = TraceReader::open_file(path);
  ASSERT_EQ(reader.chunk_count(), 4u);
  const auto expect_first_named = [](auto&& load) {
    try {
      load();
      ADD_FAILURE() << "loaded a trace with two unknown parents";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "record 5000 (id 5001): unknown parent id 999999"),
                std::string::npos)
          << e.what();
    }
  };
  expect_first_named([&] { (void)reader.read_all(); });
  for (int rep = 0; rep < 20; ++rep) {
    expect_first_named([&] { (void)core::load_replay_trace(path); });
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sctm::tracestore
