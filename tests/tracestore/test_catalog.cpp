#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "support/trace_builder.hpp"
#include "trace/trace_io.hpp"
#include "tracestore/catalog.hpp"

namespace sctm::tracestore {
namespace {

namespace fs = std::filesystem;

trace::Trace make_trace(const char* app, std::uint64_t seed,
                        std::size_t records) {
  std::vector<fixtures::Rec> recs;
  for (std::size_t i = 0; i < records; ++i) {
    recs.push_back({i + 1, static_cast<NodeId>(i % 4),
                    static_cast<NodeId>((i + 1) % 4), 10 * i, 10 * i + 5, {},
                    64, noc::MsgClass::kData});
  }
  trace::Trace t = fixtures::make_trace(4, recs);
  t.app = app;
  t.capture_network = "enoc mesh 2x2";
  t.capture_runtime = 1000;
  t.seed = seed;
  return t;
}

struct TempDir {
  TempDir() : path(fs::temp_directory_path() /
                   ("sctm_catalog_test_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

TEST(TraceCatalogTest, AddListFindRoundTrip) {
  TempDir tmp;
  TraceCatalog cat(tmp.path.string());
  const auto a = cat.add(make_trace("fft", 1, 10), "2026-08-07T00:00:00Z");
  const auto b = cat.add(make_trace("lu", 2, 20), "2026-08-07T00:00:01Z");
  EXPECT_NE(a.hash, b.hash);
  EXPECT_EQ(a.app, "fft");
  EXPECT_EQ(a.records, 10u);
  EXPECT_EQ(b.records, 20u);
  EXPECT_TRUE(fs::exists(cat.container_path(a)));
  EXPECT_TRUE(fs::exists(cat.container_path(b)));

  const auto entries = cat.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_LT(entries[0].hash, entries[1].hash);  // sorted by hash

  const auto found = cat.find(a.hash.substr(0, 6));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->hash, a.hash);
  EXPECT_EQ(found->seed, 1u);
  EXPECT_FALSE(cat.find("not-hex").has_value());
  EXPECT_FALSE(cat.find("").has_value());  // empty prefix is never valid
  if (a.hash[0] == b.hash[0]) {
    // Shared first digit: a one-digit prefix is ambiguous.
    EXPECT_FALSE(cat.find(a.hash.substr(0, 1)).has_value());
  }
}

TEST(TraceCatalogTest, AddIsIdempotentByContent) {
  TempDir tmp;
  TraceCatalog cat(tmp.path.string());
  const auto t = make_trace("fft", 7, 12);
  const auto first = cat.add(t, "2026-08-07T00:00:00Z");
  // Same content again (different timestamp): no new entry, original kept.
  const auto again = cat.add(t, "2026-08-07T09:99:99Z");
  EXPECT_EQ(again.hash, first.hash);
  EXPECT_EQ(again.created, first.created);
  EXPECT_EQ(cat.list().size(), 1u);
}

TEST(TraceCatalogTest, StoredContainerLoadsBack) {
  TempDir tmp;
  TraceCatalog cat(tmp.path.string());
  const auto t = make_trace("sort", 3, 25);
  const auto entry = cat.add(t, "2026-08-07T00:00:00Z");
  // The stored container is a normal v2 file: the generic loader reads it.
  EXPECT_EQ(trace::read_binary_file(cat.container_path(entry)), t);
}

TEST(TraceCatalogTest, ListSkipsUnparsableManifests) {
  TempDir tmp;
  TraceCatalog cat(tmp.path.string());
  cat.add(make_trace("fft", 1, 5), "2026-08-07T00:00:00Z");
  std::ofstream(tmp.path / "garbage.json") << "{not json";
  std::ofstream(tmp.path / "half.json") << "{\"schema\": \"wrong.v9\"}";
  EXPECT_EQ(cat.list().size(), 1u);
}

TEST(TraceCatalogTest, ManifestJsonRoundTrips) {
  CatalogEntry e;
  e.hash = "00ff00ff00ff00ff";
  e.file = "00ff00ff00ff00ff.trc2";
  e.created = "2026-08-07T00:00:00Z";
  e.app = "fft";
  e.capture_network = "enoc \"mesh\" 4x4";  // needs JSON escaping
  e.nodes = 16;
  e.capture_runtime = 4390;
  e.seed = 42;
  e.records = 2720;
  e.chunk_target = 4096;
  e.chunks = 1;
  e.file_bytes = 32841;
  const auto back = parse_manifest(e.manifest_json());
  EXPECT_EQ(back.hash, e.hash);
  EXPECT_EQ(back.file, e.file);
  EXPECT_EQ(back.capture_network, e.capture_network);
  EXPECT_EQ(back.records, e.records);
  EXPECT_EQ(back.chunk_target, e.chunk_target);
  EXPECT_EQ(back.file_bytes, e.file_bytes);
  EXPECT_THROW(parse_manifest("{\"schema\":\"other.v1\"}"),
               std::runtime_error);
}

}  // namespace
}  // namespace sctm::tracestore
